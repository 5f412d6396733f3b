#!/usr/bin/env python3
"""Run one qloss benchmark workload and print its metrics.

    python3 bench/run.py --workload classify_small --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout; qloss is imported from ``src/``.
The workload's inputs are made from ``--seed`` and revisited in whole rounds
until ``--seconds`` are used up. The host's speed swings by tens of percent
for seconds at a time and drifts for minutes, so every call is timed
against a probe, a fixed numpy + Python loop timed right before and right
after it (``HostProbe``): a slow stretch slows both, a change to qloss only
the call. The probe is shaped like the workload's own work, since the
host's swings hit dense kernels and Python-heavy code differently. An
input's time is the median over rounds of its calls' ratios to their
probe, times the probe's time on a reference host (``REFERENCE_PROBE_S``).
Each round's output is compared with the first round's by a hash, so
memory does not grow with the number of rounds; the first output is
checked independently after the timed phase (see ``workloads.py``).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones from ``spans.py``. The line before it holds the probe's readings and
run details, which are not metrics. The exit code is 0 when every check
passed, 1 when a check failed and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# qloss's thread pool plus BLAS threads must not exceed the host's cores
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 7
# each probe's median time on the 2-vCPU VM the README's figures come from
REFERENCE_PROBE_S = {"mixed": 0.0060, "dense": 0.0018, "pooled": 0.0100}
# probe time after a call, as a share of the call's time: one reading after
# a short call, the median of many after a long one
PROBE_SHARE = 0.05

os.environ.update(PINNED_ENV)
os.environ.pop("QLOSS_THREADS", None)         # the workloads use qloss's default pool


def fail(message: str) -> int:
    sys.stderr.write(f"bench: {message}\n")
    return 2


def setup_seconds(warmup: str) -> float:
    """Median of fresh processes, each timing its own import of qloss plus
    the warm-up call (interpreter start-up left out) against a probe timed
    right after it in the same process."""
    code = (f"import sys, time\nsys.path.insert(0, {str(SRC)!r})\n"
            f"start = time.perf_counter()\nimport qloss\n{warmup}\n"
            f"elapsed = time.perf_counter() - start\n"
            f"sys.path.insert(0, {str(Path(__file__).parent)!r})\nfrom run import HostProbe\n"
            f"probe = HostProbe('mixed')\nprobe.read()\n"
            f"sys.stderr.write(repr(elapsed / probe.read()))\n")
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=dict(os.environ),
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stderr.strip().splitlines()[-1]))
    return statistics.median(samples) * REFERENCE_PROBE_S["mixed"]


class HostProbe:
    """A fixed numpy + Python loop that does not call qloss: the host's speed
    at the moment, for work of the workload's kind.

    ``mixed``: 100 ``eigh`` calls on an 8x8 complex matrix (small kernels
    and their Python overhead), a Python ``sum`` over 30000 squares and one
    144x144 complex matmul. ``dense``: the Kronecker product of two 14x14
    complex matrices times a 196x196 one, the filtering step's kernel at
    2x14x14. ``pooled``: 4 tasks (24 such ``eigh`` calls, a ``sum`` over
    7200 squares and four 36x36 complex matmuls) mapped over a thread pool
    as large as qloss's default one, so that it also feels the second core
    and the hand-offs of the interpreter lock. Import time is Python-heavy
    and uses ``mixed``.
    """

    def __init__(self, kind: str):
        import numpy as np

        self.kind = kind
        self.eigh, self.kron = np.linalg.eigh, np.kron
        rng = np.random.default_rng(0)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        self.small = a + a.conj().T
        self.large = rng.normal(size=(144, 144)) + 1j * rng.normal(size=(144, 144))
        self.factor = rng.normal(size=(14, 14)) + 1j * rng.normal(size=(14, 14))
        self.square = rng.normal(size=(196, 196)) + 1j * rng.normal(size=(196, 196))
        self.tile = rng.normal(size=(36, 36)) + 1j * rng.normal(size=(36, 36))
        self.readings = []

    def _task(self, _):
        for _ in range(24):
            self.eigh(self.small)
        sum(i * i for i in range(7200))
        for _ in range(4):
            self.tile @ self.tile

    def read(self) -> float:
        start = time.perf_counter()
        if self.kind == "dense":
            self.kron(self.factor, self.factor) @ self.square
        elif self.kind == "pooled":
            with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
                list(pool.map(self._task, range(4)))
        else:
            for _ in range(100):
                self.eigh(self.small)
            sum(i * i for i in range(30000))
            self.large @ self.large
        elapsed = time.perf_counter() - start
        self.readings.append(elapsed)
        return elapsed

    def read_after(self, call_s: float) -> float:
        """Median of readings that together take ``PROBE_SHARE`` of ``call_s``, at least one."""
        new = [self.read()]
        while sum(new) < PROBE_SHARE * call_s:
            new.append(self.read())
        return statistics.median(new)


class Calls:
    """Every call of one run: per input, its times and its ratios to the
    probe by mode, its first output or error, and any round whose output or
    error differed from the first."""

    def __init__(self, count: int, modes: list[str], reference_s: float):
        self.reference_s = reference_s
        self.times = {mode: [[] for _ in range(count)] for mode in modes}
        self.ratios = {mode: [[] for _ in range(count)] for mode in modes}
        self.rounds = dict.fromkeys(modes, 0)
        self.first = [None] * count          # kept whole for the full check
        self.first_error = [None] * count
        self.first_hash = [None] * count
        self.differs = [False] * count

    def scaled(self, mode: str) -> list[float]:
        """Each input's seconds on the reference host."""
        return [statistics.median(r) * self.reference_s for r in self.ratios[mode]]

    def unscaled(self, mode: str) -> list[float]:
        return [statistics.median(t) for t in self.times[mode]]


def run_round(wl, inputs, calls: Calls, probe: HostProbe, mode: str):
    """One call per input, each followed by the probe."""
    from qloss import QlossError

    first_round = not any(calls.rounds.values())
    before = probe.readings[-1]
    for i, item in enumerate(inputs):
        start = time.perf_counter()
        try:
            out, error = wl.call(item.payload), None
        except QlossError as exc:
            out, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        after = probe.read_after(elapsed)
        calls.times[mode][i].append(elapsed)
        calls.ratios[mode][i].append(2 * elapsed / (before + after))
        before = after
        key = repr(error if error else wl.digest(out))
        digest = hashlib.blake2b(key.encode(), digest_size=16).digest()
        if first_round:
            calls.first[i], calls.first_error[i], calls.first_hash[i] = out, error, digest
        elif digest != calls.first_hash[i]:
            calls.differs[i] = True
    calls.rounds[mode] += 1


def check_outputs(wl, inputs, calls: Calls) -> list[str]:
    """Full checks on each input's first output; every later round must
    repeat it exactly, error messages included. Only a kept failure may fail."""
    errors = []
    for i, item in enumerate(inputs):
        error = calls.first_error[i]
        if calls.differs[i]:
            errors.append(f"{item.label}: output or error differs between rounds")
        if error is None:
            errors += [f"{item.label}: {e}" for e in wl.check(item, calls.first[i])]
        elif not item.kept_failure:
            errors.append(f"{item.label}: unexpected failure: {error}")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qloss" / "__init__.py").is_file():
        return fail(f"no qloss sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import qloss
    if Path(qloss.__file__).resolve().parent != SRC / "qloss":
        return fail(f"imported qloss from {qloss.__file__}, not from {SRC}")
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; "
                    f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]

    try:
        setup_s = setup_seconds(wl.warmup) if args.trace == 0 else None
    except RuntimeError as exc:
        return fail(str(exc))
    inputs = wl.build(args.seed)
    exec(wl.warmup, {"qloss": qloss})          # the same untimed warm-up call

    # plain rounds always; the traced run alternates them with traced rounds
    # and, for pooled workloads, with rounds on one qloss thread
    modes = ["plain"]
    if args.trace:
        modes += ["traced"] + (["single"] if wl.pooled else [])
    calls = Calls(len(inputs), modes, REFERENCE_PROBE_S[wl.probe])
    tracer = Tracer()
    probe = HostProbe(wl.probe)
    probe.read()                                # its first reading pays numpy's warm-up
    probe.read()
    start = time.perf_counter()
    done = 0
    while True:
        mode = modes[done % len(modes)]
        if mode == "traced":
            with tracer.installed():
                run_round(wl, inputs, calls, probe, mode)
        elif mode == "single":
            os.environ["QLOSS_THREADS"] = "1"
            try:
                run_round(wl, inputs, calls, probe, mode)
            finally:
                del os.environ["QLOSS_THREADS"]
        else:
            run_round(wl, inputs, calls, probe, mode)
        done += 1
        elapsed = time.perf_counter() - start
        # at least two rounds of each mode; stop before a round would overrun
        if done >= 2 * len(modes) and elapsed * (done + 1) / done > args.seconds:
            break
    phase_s = time.perf_counter() - start

    errors = check_outputs(wl, inputs, calls)
    for e in errors:
        sys.stderr.write(f"bench: check failed: {e}\n")

    failed_inputs = [e is not None for e in calls.first_error]
    per_round = sum(item.items for item in inputs)
    ok_per_round = sum(item.items for item, bad in zip(inputs, failed_inputs) if not bad)

    def items_per_s(mode):
        return ok_per_round / sum(calls.scaled(mode))

    if args.trace == 0:
        ok = [not bad for bad in failed_inputs]
        latency = [t for t, keep in zip(calls.scaled("plain"), ok) if keep]
        metrics = {
            "setup_s": (setup_s, "s"),
            "items_per_s": (items_per_s("plain"), "1/s"),
            "latency_ms_p50": (statistics.median(latency) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = layer_metrics(tracer, per_round * calls.rounds["traced"])
        pool_ms = 0.0
        if wl.pooled:
            pool_ms = (sum(calls.scaled("plain")) - sum(calls.scaled("single"))) * 1e3 / per_round
        metrics["robustness.pool.overhead_ms"] = (pool_ms, "ms/item")
        metrics["trace.overhead_pct"] = (
            (items_per_s("plain") / items_per_s("traced") - 1) * 100, "%")
    unscaled = {}
    if args.trace == 0:
        unscaled = {"items_per_s": ok_per_round / sum(calls.unscaled("plain")),
                    "latency_ms_p50": statistics.median(
                        [t for t, keep in zip(calls.unscaled("plain"), ok) if keep]) * 1e3}
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "rounds": calls.rounds,
        "unscaled": unscaled,
        "phase_s": phase_s,
        "probe_ms": {"first": probe.readings[0] * 1e3, "last": probe.readings[-1] * 1e3,
                     "median": statistics.median(probe.readings) * 1e3},
        "scaled_ms": {item.label: t * 1e3 for item, t in zip(inputs, calls.scaled("plain"))},
    }))
    print(json.dumps({
        "correct": not errors, "attempted": per_round * done,
        "failed": (per_round - ok_per_round) * done,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if errors else 0


def layer_metrics(tracer, items: int) -> dict:
    """Per-item figures from the traced rounds; a layer that never ran reads 0."""
    def ms(name):
        return tracer.ms[name] / items, "ms/item"

    def count(name):
        return tracer.count[name] / items, "count/item"

    def self_ms(*names):
        return sum(tracer.self_ms[n] for n in names) / items, "ms/item"

    return {
        "states.density_matrix.count": count("states.density_matrix"),
        "states.density_matrix.ms": ms("states.density_matrix"),
        "states.partial_trace.ms": ms("states.partial_trace"),
        "states.reduce_support.ms": ms("states.reduce_support"),
        "numerics.eigh.count": count("numerics.eigh"),
        "numerics.inv_sqrt_psd.count": count("numerics.inv_sqrt_psd"),
        "bloch.normal_form.ms": ms("bloch.normal_form"),
        "bloch.normal_form.iterations": (tracer.nf_iterations / items, "count/item"),
        "bloch.normal_form.converged": (tracer.nf_converged / items, "ratio"),
        "bloch.normal_form.gflop": (tracer.nf_flop / items / 1e9, "gflop/item"),
        "bloch.bloch_decompose.ms": ms("bloch.bloch_decompose"),
        "criteria.ppt_negativity.ms": ms("criteria.ppt_negativity"),
        "criteria.wootters_concurrence.ms": ms("criteria.wootters_concurrence"),
        "criteria.kf_criterion.count": count("criteria.kf_criterion"),
        "robustness.classify.self_ms": self_ms("robustness.classify_qubit_loss",
                                               "robustness.classify_residual"),
        "robustness.random_two_qubit_mixed.ms": ms("robustness.random_two_qubit_mixed"),
        "cli.self_ms": self_ms("cli.main"),
    }


if __name__ == "__main__":
    sys.exit(main())
