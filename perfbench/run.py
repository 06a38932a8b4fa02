"""Run one workload of the repository benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload kb-batched --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing. ``--trace 1``
installs the per-layer wrappers of ``perfbench/spans.py`` and reports the
per-layer ledger instead. Every run prints its provenance, one line per
metric, and as its last line one JSON object::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 when every output check passed, 1 when a check failed
(the result line still says what ran), and 2 when the program cannot be
imported (no result line). See ``perfbench/README.md`` for the workloads and
what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Set-up is measured this many times per run, each in a fresh process so
# every sample pays cold caches; the run reports the median. The run's own
# set-up is not a sample: it is the first in the checkout to read the files.
SETUP_SAMPLES = 7
# Kernel samples taken before and again after each set-up sample.
SETUP_KERNEL_SAMPLES = 10
# Traced runs alternate traced and untraced blocks of this length after the
# counted prefix, so trace.overhead compares like with like even where the
# state grows over the run (audit-churn's logs).
BLOCK_SECONDS = 0.5
PROBE_TIMEOUT = 150

clock = time.perf_counter

END_TO_END_UNITS = {
    "ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
    "update_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB",
}

# Ledger counters reported per request, name -> (counter, unit).
COUNTERS = {
    "wire.codec.encode_calls_per_op": ("wire.codec.encode_calls", "count"),
    "wire.codec.decode_calls_per_op": ("wire.codec.decode_calls", "count"),
    "wire.codec.bytes_encoded_per_op": ("wire.codec.bytes_encoded", "B"),
    "wire.framing.frames_per_op": ("wire.framing.frames", "count"),
    "net.rpc.calls_per_op": ("net.rpc.calls", "count"),
    "sandbox.invokes_per_op": ("sandbox.invokes", "count"),
    "crypto.ec.multiplies_per_op": ("crypto.ec.multiplies", "count"),
    "crypto.sig.signs_per_op": ("crypto.sig.signs", "count"),
    "crypto.sig.verifies_per_op": ("crypto.sig.verifies", "count"),
    "crypto.hash.calls_per_op": ("crypto.hash.calls", "count"),
    "crypto.shamir.splits_per_op": ("crypto.shamir.splits", "count"),
    "crypto.shamir.reconstructs_per_op": ("crypto.shamir.reconstructs", "count"),
    "enclave.attests_per_op": ("enclave.attests", "count"),
    "enclave.verifies_per_op": ("enclave.verifies", "count"),
    "transparency.log.appends_per_op": ("transparency.log.appends", "count"),
    "transparency.log.entries_verified_per_op":
        ("transparency.log.entries_verified", "count"),
    "service.ring.lookups_per_op": ("service.ring.lookups", "count"),
    "service.sharded.scatters_per_op": ("service.sharded.scatters", "count"),
    "service.parallel.pipe_bytes_per_op": ("service.parallel.pipe_bytes", "B"),
}
# Counters the program keeps itself (Network.stats, RPC client retries,
# HopStats, the simulated clock), read through the workload.
PROBES = {
    "net.transport.messages_per_op": "count",
    "net.transport.bytes_per_op": "B",
    "net.rpc.retries_per_op": "count",
    "net.vsock.forwards_per_op": "count",
    "net.vsock.bytes_per_op": "B",
}
# Self time of these span layers over traced wall time.
SHARES = {
    "wire.codec.self_share": ("wire.codec",),
    "net.self_share": ("net.transport", "net.rpc", "net.vsock"),
    "sandbox.self_share": ("sandbox",),
    "crypto.ec.self_share": ("crypto.ec",),
    "crypto.shamir.self_share": ("crypto.shamir",),
    "enclave.self_share": ("enclave",),
    "transparency.self_share": ("transparency",),
    "service.sharded.self_share": ("service.sharded",),
    "apps.keybackup.client_self_share": ("apps.keybackup",),
}
# Metrics split by request kind on audit-churn (suffix .audit / .update).
SPLIT_KINDS = ("audit", "update")
SPLIT_COUNTERS = (
    "wire.codec.encode_calls_per_op", "wire.codec.decode_calls_per_op",
    "wire.codec.bytes_encoded_per_op", "sandbox.invokes_per_op",
    "crypto.ec.multiplies_per_op", "crypto.sig.signs_per_op",
    "crypto.sig.verifies_per_op", "crypto.hash.calls_per_op",
    "enclave.attests_per_op", "enclave.verifies_per_op",
    "transparency.log.appends_per_op", "transparency.log.entries_verified_per_op",
)
SPLIT_SHARES = ("wire.codec.self_share", "crypto.ec.self_share",
                "enclave.self_share", "transparency.self_share")
TIMES = {
    "core.deploy_build_s": "s", "core.client_audit_s": "s",
    "core.audit_response_ms": "ms", "core.install_ms": "ms",
    "service.parallel.worker_start_s": "s",
    "service.parallel.coordinator_wait_share": "share",
    "service.parallel.parent_cpu_ms_per_op": "ms",
    "service.parallel.worker_cpu_ms_per_op": "ms",
    "proc.cpu_ms_per_op": "ms",
    "trace.overhead": "share",
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {name: unit for name, (_, unit) in COUNTERS.items()}
    units.update(PROBES)
    units["sim_ms_per_op"] = "ms"
    units["error_rate"] = "share"
    units.update({name: "share" for name in SHARES})
    for kind in SPLIT_KINDS:
        units.update({f"{name}.{kind}": COUNTERS[name][1] for name in SPLIT_COUNTERS})
        units.update({f"{name}.{kind}": "share" for name in SPLIT_SHARES})
    units.update(TIMES)
    return units


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _source_digest() -> str:
    """SHA-256 over every file of ``src/repro`` (the checkout may not be a
    git repository, so the commit alone cannot name the code)."""
    digest = hashlib.sha256()
    source = os.path.join(ROOT, "src", "repro")
    for directory, subdirs, files in os.walk(source):
        subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, source).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def provenance(args) -> dict:
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(), "cpu_model": _cpu_model(),
        "loadavg_before": list(os.getloadavg()),
        "git_commit": _git_commit(), "source_sha256": _source_digest(),
    }


# ----------------------------------------------------------------------
# Measurement helpers
# ----------------------------------------------------------------------
def _percentile(samples: list, fraction: float) -> float:
    """Linear-interpolated percentile (``statistics.quantiles`` inclusive);
    0 when every request failed (the run is then failed anyway)."""
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def _peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 1024.0 if sys.platform != "darwin" else peak / 2**20


def _children_cpu_seconds() -> float:
    """CPU seconds used so far by this process's live children (the
    executor's workers), from ``/proc/<pid>/stat``."""
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])    # utime + stime
    return total / ticks


class Loop:
    """Totals of one closed loop (or of one kind of block within it)."""

    def __init__(self):
        self.iterations = 0
        self.ops = 0
        self.failed = 0
        self.seconds = 0.0
        self.cpu = 0.0
        self.latencies: list = []
        self.writes: list = []
        self.problems: list = []
        # When each iteration ended, its duration, and the end of the
        # iteration each latency and write belongs to (for host scaling).
        self.ends: list = []
        self.durations: list = []
        self.latency_ends: list = []
        self.write_ends: list = []

    def step(self, workload, index: int) -> None:
        tracer = workload.tracer
        tracing = tracer is not None and tracer.on
        if tracing:
            tracer.on = False
        inputs = workload.make_inputs(index)
        if tracing:
            tracer.on = True
        cpu = time.process_time()
        started = clock()
        outcome = workload.run(inputs)
        ended = clock()
        self.seconds += ended - started
        self.cpu += time.process_time() - cpu
        self.ends.append(ended)
        self.durations.append(ended - started)
        self.latency_ends.extend([ended] * len(outcome.latencies))
        self.write_ends.extend([ended] * len(outcome.writes))
        self.iterations += 1
        self.ops += outcome.ops
        self.failed += outcome.failed
        self.latencies.extend(outcome.latencies)
        self.writes.extend(outcome.writes)
        self.problems.extend(outcome.problems[:3])


def _setup(workload, started: float) -> dict:
    phases = {}
    workload.setup(phases)
    phases["setup_s"] = clock() - started
    return phases


def _probe(args, kind: str) -> dict:
    """Run this script as a fresh process in probe mode; return its JSON."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--probe", kind]
    done = subprocess.run(command, cwd=ROOT, text=True, capture_output=True,
                          timeout=PROBE_TIMEOUT)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{kind} probe failed ({done.returncode}): "
                           f"{done.stderr.strip()[-400:]}")
    return json.loads(lines[-1])


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def _layer_probes(workload) -> dict:
    messages, size = workload.network_stats()
    forwards, forwarded = workload.vsock_stats()
    return {"net.transport.messages_per_op": messages,
            "net.transport.bytes_per_op": size,
            "net.rpc.retries_per_op": workload.rpc_retries(),
            "net.vsock.forwards_per_op": forwards,
            "net.vsock.bytes_per_op": forwarded,
            "sim_ms_per_op": workload.sim_seconds() * 1000.0}


def _count_metrics(workload, ledger: dict, probes: dict, loop: Loop,
                   segments: dict) -> dict:
    """Per-request counts over the counted prefix (exact for a seed)."""
    requests = loop.iterations * workload.requests_per_iteration
    metrics = {name: ledger["counts"].get(counter, 0) / requests
               for name, (counter, _) in COUNTERS.items()}
    metrics.update({name: value / requests for name, value in probes.items()})
    # sim_ms_per_op is per user op, like ops_per_s.
    metrics["sim_ms_per_op"] = probes["sim_ms_per_op"] / loop.ops
    for kind in SPLIT_KINDS:
        segment = segments.get(kind)
        for name in SPLIT_COUNTERS:
            value = 0.0
            if segment:
                value = segment["counts"].get(COUNTERS[name][0], 0) / segment["n"]
            metrics[f"{name}.{kind}"] = value
    return metrics


def _share_metrics(ledger: dict, seconds: float, segments: dict) -> dict:
    metrics = {name: sum(ledger["self"].get(layer, 0.0) for layer in layers) / seconds
               for name, layers in SHARES.items()}
    for kind in SPLIT_KINDS:
        segment = segments.get(kind)
        for name in SPLIT_SHARES:
            value = 0.0
            if segment:
                value = sum(segment["self"].get(layer, 0.0)
                            for layer in SHARES[name]) / segment["seconds"]
            metrics[f"{name}.{kind}"] = value
    return metrics


def _copy_segments(segments: dict) -> dict:
    return {kind: {part: (dict(value) if isinstance(value, dict) else value)
                   for part, value in segment.items()}
            for kind, segment in segments.items()}


def _subtract(after: dict, before: dict) -> dict:
    return {key: after[key] - before[key] for key in after}


def run_prefix(workload, tracer) -> tuple[dict, Loop]:
    """Run the counted prefix with tracing on; return its count metrics."""
    ledger_before = tracer.snapshot()
    probes_before = _layer_probes(workload)
    loop = Loop()
    tracer.on = True
    for index in range(workload.prefix):
        loop.step(workload, index)
    tracer.on = False
    ledger = tracer.delta(tracer.snapshot(), ledger_before)
    probes = _subtract(_layer_probes(workload), probes_before)
    counts = _count_metrics(workload, ledger, probes, loop,
                            _copy_segments(workload.segments))
    return counts, loop


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def measure_end_to_end(args, workload) -> tuple[dict, Loop]:
    """Untraced closed loop for ``--seconds`` (ending on a whole cycle);
    set-up sampled in fresh processes afterwards. Wall times are scaled to
    the reference host speed (``hostspeed.py``)."""
    loop = Loop()
    speed = hostspeed.HostSpeed()
    deadline = clock() + args.seconds
    # Peak RSS is read after a fixed number of iterations: the stored state
    # grows with every request, so reading it at the deadline would measure
    # how fast the host was, not how much memory the same work needs.
    rss = None
    while clock() < deadline or rss is None or loop.iterations % workload.cycle:
        speed.maybe_sample()
        loop.step(workload, loop.iterations)
        if loop.iterations == workload.rss_iterations:
            rss = _peak_rss_mb()
    speed.sample()
    loop.problems.extend(workload.finish())
    workload.close()
    probes = [_probe(args, "setup") for _ in range(SETUP_SAMPLES)]
    setups = [probe["setup_s"] * probe["scale"] for probe in probes]

    def scaled(values, ends):
        return [value * speed.scale(end) for value, end in zip(values, ends)]

    latencies = scaled(loop.latencies, loop.latency_ends)
    writes = scaled(loop.writes, loop.write_ends)
    completed = loop.ops - loop.failed
    metrics = {
        "ops_per_s": completed / sum(scaled(loop.durations, loop.ends)),
        "latency_p50_ms": _percentile(latencies, 0.5) * 1000.0,
        "latency_p90_ms": _percentile(latencies, 0.9) * 1000.0,
        "update_p50_ms": _percentile(writes, 0.5) * 1000.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    print(f"# requests={len(loop.latencies)} writes={len(loop.writes)} "
          f"loop_s={loop.seconds:.3f} host_scale={speed.overall():.4f} "
          f"({len(speed.samples)} kernel samples)")
    print(f"# unscaled: ops_per_s={completed / loop.seconds:.3f} "
          f"latency_p50_ms={_percentile(loop.latencies, 0.5) * 1000.0:.4f} "
          f"latency_p90_ms={_percentile(loop.latencies, 0.9) * 1000.0:.4f} "
          f"update_p50_ms={_percentile(loop.writes, 0.5) * 1000.0:.4f} "
          f"setup_s={statistics.median(probe['setup_s'] for probe in probes):.4f} "
          f"setup_samples_s={[round(probe['setup_s'], 4) for probe in probes]} "
          f"setup_scales={[round(probe['scale'], 4) for probe in probes]}")
    return ({name: {"value": value, "unit": END_TO_END_UNITS[name]}
             for name, value in metrics.items()}, loop)


def measure_per_layer(args, workload, tracer, phases) -> tuple[dict, Loop]:
    """Counted prefix, then alternating traced and untraced blocks."""
    parallel = workload.name == "kb-parallel"
    loop_started = clock()
    counts, prefix = run_prefix(workload, tracer)
    traced, untraced = Loop(), Loop()
    worker_cpu = 0.0
    index = prefix.iterations
    while (clock() - loop_started < args.seconds
           or not traced.iterations or not untraced.iterations):
        tracer.on = not tracer.on
        block = traced if tracer.on else untraced
        children = _children_cpu_seconds() if parallel and tracer.on else 0.0
        block_end = clock() + BLOCK_SECONDS
        while clock() < block_end:
            block.step(workload, index)
            index += 1
        if parallel and tracer.on:
            worker_cpu += _children_cpu_seconds() - children
    tracer.on = False
    problems = workload.finish()
    workload.close()
    # The tracer was on only in the prefix and the traced blocks, so its
    # totals are exactly the traced window.
    ledger = tracer.snapshot()
    traced_seconds = traced.seconds + prefix.seconds
    traced_requests = (traced.iterations + prefix.iterations) * workload.requests_per_iteration
    metrics = dict(counts)
    metrics.update(_share_metrics(ledger, traced_seconds, workload.segments))
    calls = ledger["calls"]
    n_audits = tracer.counts.get("core.audit_responses", 0)
    n_installs = tracer.counts.get("core.installs", 0)
    cpu_ms = (traced.cpu + prefix.cpu) * 1000.0 / traced_requests
    attempted = prefix.ops + traced.ops + untraced.ops
    failed = prefix.failed + traced.failed + untraced.failed
    metrics.update({
        "error_rate": failed / attempted,
        "core.deploy_build_s": phases.get("deploy_build_s", 0.0),
        "core.client_audit_s": phases.get("client_audit_s", 0.0),
        "core.audit_response_ms": (calls.get("core.audit_responses", 0.0) * 1000.0
                                   / n_audits if n_audits else 0.0),
        "core.install_ms": (calls.get("core.installs", 0.0) * 1000.0 / n_installs
                            if n_installs else 0.0),
        "service.parallel.worker_start_s": phases.get("worker_start_s", 0.0),
        "service.parallel.coordinator_wait_share":
            calls.get("service.parallel.waits", 0.0) / traced_seconds,
        "service.parallel.parent_cpu_ms_per_op": cpu_ms if parallel else 0.0,
        "service.parallel.worker_cpu_ms_per_op":
            worker_cpu * 1000.0 / (traced.iterations * workload.requests_per_iteration)
            if parallel else 0.0,
        "proc.cpu_ms_per_op": cpu_ms,
        "trace.overhead": 1.0 - (traced.iterations / traced.seconds)
                          / (untraced.iterations / untraced.seconds),
    })
    print(f"# traced_s={traced_seconds:.3f} untraced_s={untraced.seconds:.3f} "
          f"prefix_iterations={prefix.iterations} traced_iterations={traced.iterations} "
          f"untraced_iterations={untraced.iterations}")
    _write_ledger(args, ledger, workload.segments, counts)
    if workload.name != "kb-parallel":
        # Same seed, fresh process: every count must repeat exactly.
        again = _probe(args, "counts")
        differ = [name for name, value in counts.items() if again.get(name) != value]
        problems.extend(f"same-seed count {name}: {counts[name]!r} here, "
                        f"{again.get(name)!r} in a fresh process" for name in differ)
        print(f"# same-seed count check: {len(counts)} metrics compared with a "
              f"fresh process, {len(differ)} differ")
    total = Loop()
    total.ops, total.failed = attempted, failed
    total.problems = prefix.problems + traced.problems + untraced.problems + problems
    return ({name: {"value": metrics[name], "unit": unit}
             for name, unit in per_layer_units().items()}, total)


def _write_ledger(args, ledger: dict, segments: dict, counts: dict) -> None:
    """Keep the traced run's full ledger next to the result."""
    directory = os.path.join(ROOT, ".perfbench")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"ledger": ledger, "segments": segments, "prefix_counts": counts},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: the runner re-executes itself in a fresh process to sample
    # cold set-up time and to replay the counted prefix.
    parser.add_argument("--probe", choices=("setup", "counts"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    source = os.path.join(ROOT, "src")
    sys.path.insert(0, source)
    spec = importlib.util.find_spec("repro")
    if spec is None or not os.path.abspath(spec.origin).startswith(source + os.sep):
        where = "nowhere" if spec is None else spec.origin
        print(f"perfbench: the program must come from {source}/repro; found {where}",
              file=sys.stderr)
        return 2
    if args.probe is None:
        print(json.dumps({"provenance": provenance(args)}, sort_keys=True))

    # A set-up sample is scaled by kernel samples taken around it.
    speed = None
    if args.probe == "setup":
        speed = hostspeed.HostSpeed()
        for _ in range(SETUP_KERNEL_SAMPLES):
            speed.sample()
    # Set-up time starts before the program is imported.
    started = clock()
    from repro.crypto import rng as crypto_rng

    import spans
    from workloads import WORKLOADS, SetupError

    workload = WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace or args.probe == "counts":
        tracer = spans.Tracer()
        spans.install(tracer)
        workload.tracer = tracer

    # One seeded stream for set-up and loop, in the same order in every
    # process, so a probe replays exactly what this run did.
    with crypto_rng.deterministic(args.seed):
        try:
            phases = _setup(workload, started)
        except SetupError as exc:
            print(f"error: {exc}")
            print(f"perfbench: {args.workload} set-up failed: {exc}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                              "metrics": {}}))
            return 1
        if args.probe == "setup":
            workload.close()
            for _ in range(SETUP_KERNEL_SAMPLES):
                speed.sample()
            phases["scale"] = speed.overall()
            print(json.dumps(phases))
            return 0
        if args.probe == "counts":
            counts, _ = run_prefix(workload, tracer)
            workload.close()
            print(json.dumps(counts))
            return 0
        try:
            if args.trace:
                metrics, loop = measure_per_layer(args, workload, tracer, phases)
            else:
                metrics, loop = measure_end_to_end(args, workload)
        finally:
            workload.close()    # idempotent; stops executor workers on errors

    correct = loop.failed == 0 and not loop.problems
    for problem in loop.problems[:10]:
        print(f"check failed: {problem}")
    print(f"# loadavg_after={list(os.getloadavg())}")
    for name, metric in metrics.items():
        print(f"{name:<48} {metric['value']:>16.6f} {metric['unit']}")
    print(f"# failed/attempted={loop.failed}/{loop.ops}")
    print(json.dumps({"correct": correct, "attempted": loop.ops,
                      "failed": loop.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
