"""The four benchmark workloads and the expected output of each operation.

Each workload is a closed loop of one caller: the next operation starts
when the previous one has returned.  ``verify_all`` runs every operation in
a fresh process, as users run it; the others run in the benchmark process,
with their lru_cache constructions built before timing starts.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

from tracer import Recorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OP_TIMEOUT_S = 170


def run_child(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run a child process to its end; a watchdog kills it after ``timeout``.

    ``subprocess.run(timeout=...)`` polls for the exit in sleeps of up to
    50 ms, which would show in the timings; ``communicate()`` without a
    timeout blocks on the pipes and the exit instead.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=env, cwd=ROOT) as proc:
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            out, err = proc.communicate()
        finally:
            watchdog.cancel()
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def points_digest(points) -> str:
    """Order-independent digest of a set of projective points."""
    text = json.dumps(sorted(list(p) for p in points))
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    """Base: ``run`` one operation, then ``check`` its output."""

    in_process = True

    def __init__(self, seed: int) -> None:
        pass  # only hilbert_deep has inputs to draw

    def warm(self) -> None:
        """Build what the operations share, before timing starts."""


class VerifyAll(Workload):
    """``heisencheck verify --suite all --format json`` in a cold process."""

    name = "verify_all"
    in_process = False
    known_red = {"chars.sym2", "chars.sym3"}
    n_checks = 33
    expected_exit = 1

    def run(self, traced: bool):
        """Returns (output, trace metrics or None)."""
        if traced:
            done = run_child([sys.executable, str(HERE / "traced_verify.py")], OP_TIMEOUT_S)
            if done.returncode != 0:
                raise RuntimeError(f"traced verify child failed: {done.stderr[-2000:]}")
            payload = json.loads(done.stdout)
            return (payload["exit"], payload["report"]), payload["trace"]
        done = run_child([sys.executable, "-m", "heisencheck", "verify",
                          "--suite", "all", "--format", "json"], OP_TIMEOUT_S)
        return (done.returncode, done.stdout), None

    def check(self, output) -> bool:
        code, text = output
        reports = json.loads(text)
        statuses = {r["check_id"]: r["status"] for r in reports}
        expected = {cid: ("fail" if cid in self.known_red else "pass") for cid in statuses}
        return (code == self.expected_exit and len(reports) == self.n_checks
                and self.known_red <= statuses.keys() and statuses == expected)


class InProcess(Workload):
    """Base for workloads whose operations run in the benchmark process."""

    def op(self):
        raise NotImplementedError

    def run(self, traced: bool):
        if not traced:
            return self.op(), None
        with Recorder() as recorder:
            output = self.op()
        return output, recorder.metrics()


class Census(InProcess):
    """Rank-stratum censuses of the quadric matrices at fixed primes."""

    name = "census"
    # (d, q) -> (nonzero stratum counts, minimal rank, digest of its points)
    expected = {
        (11, 67): ({2: 60, 4: 288420, 6: 20167961}, 2,
                   "e3fb8e869f81cfa2df860171657ba11a1b17fe4c4644c1948756be5e2054a7e0"),
        (9, 109): ({2: 40, 4: 1306980}, 2,
                   "01c5cd9d3147af4e82d36abe8303382c4e8d82db3d8bf998e889d29155c16ef7"),
    }

    def __init__(self, seed: int, expected: dict | None = None) -> None:
        if expected is not None:
            self.expected = expected

    def points(self) -> int:
        from heisencheck import ffscan

        return sum(ffscan.projective_point_count((d - 1) // 2, q) for d, q in self.expected)

    def warm(self) -> None:
        from heisencheck import heisenberg

        for d, _ in self.expected:
            heisenberg.s_matrix(d)

    def op(self):
        from heisencheck import ffscan

        return [ffscan.scan_strata(d, q) for d, q in self.expected]

    def check(self, output) -> bool:
        for census, ((d, q), (counts, min_rank, digest)) in zip(output, self.expected.items()):
            nonzero = {r: c for r, c in census.counts.items() if c}
            if (census.d, census.q) != (d, q) or nonzero != counts:
                return False
            if census.min_rank != min_rank or points_digest(census.min_rank_points) != digest:
                return False
        return len(output) == len(self.expected)


class HilbertDeep(InProcess):
    """Hilbert functions of two J(lambda:mu) family members up to degree 8."""

    name = "hilbert_deep"
    pairs_per_op = 2
    t_max = 8

    def __init__(self, seed: int, t_max: int | None = None, expected=None) -> None:
        self.rng = random.Random(seed)
        if t_max is not None:
            self.t_max = t_max
        # the family is flat with Hilbert function 9 t^2
        self.expected = expected or [1] + [9 * t * t for t in range(1, self.t_max + 1)]
        self.pairs: list[tuple[int, int]] = []

    def op(self):
        from heisencheck import hilbert, surface9

        pairs = [(self.rng.randint(1, 9), self.rng.randint(1, 9)) for _ in range(self.pairs_per_op)]
        self.pairs.extend(pairs)
        return [hilbert.graded_hilbert(surface9.j_family(lam, mu).generators(), 9, self.t_max)
                for lam, mu in pairs]

    def check(self, output) -> bool:
        return len(output) == self.pairs_per_op and all(p == self.expected for p in output)


class Smoothness(InProcess):
    """The klein.jacobian check with a single Jacobian prime."""

    name = "smoothness"
    check_id = "klein.jacobian"
    jacobian_primes = (61,)
    expected_counts = {"61": {"jacobian": 0, "system": 0}}
    expected_group_prime = {"jacobian": 1, "system": 1}

    def warm(self) -> None:
        from heisencheck import grassfano

        grassfano.klein_from_hyperplanes()
        grassfano.v14_linear_forms()

    def op(self):
        from heisencheck import checks

        spec = next(s for s in checks.CHECKS if s.check_id == self.check_id)
        config = checks.RunConfig(jacobian_primes=self.jacobian_primes)
        return spec.fn(checks.RunContext(config))

    def check(self, output) -> bool:
        status, details = output
        return (status == "pass" and details["zero_counts"] == self.expected_counts
                and details["group_prime_counts"] == self.expected_group_prime)


WORKLOADS = {w.name: w for w in (VerifyAll, Census, HilbertDeep, Smoothness)}
