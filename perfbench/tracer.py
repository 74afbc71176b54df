"""Outside-in span recorder for the heisencheck package.

The recorder wraps public functions and methods from outside the program:
each wrapper replaces the original object at every binding site, that is in
every ``heisencheck`` module whose globals hold it (``from .linalg import
rank_mod`` gives ``hilbert`` its own binding) and in every class attribute
that aliases it (``__rmul__ = __mul__``).  Leaving the context restores the
originals.

Private kernels (``_BatchSkew``, ``_batch_ranks``) are not wrapped, because
they are due to be replaced, and neither are per-element hot paths such as
``SparsePoly.__init__`` or ``Fraction``, whose wrapper cost would swamp
the run.

A span's ``s`` is its inclusive time, counted once for recursive calls of
the same name; ``self_s`` is ``s`` minus the time covered by child spans.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time

import numpy as np

# (module, attribute path, span name); the span name defaults to module.path
FUNCTIONS = (
    ("ffscan", "scan_strata", None),
    ("ffscan", "rank_at_point", None),
    ("ffscan", "find_stratum_point", None),
    ("ffscan", "jacobian_zero_counts", None),
    ("linalg", "rank_fraction", None),
    ("linalg", "rank_gauss_mod", None),
    ("hilbert", "graded_hilbert", None),
    ("mpoly", "graded_monomials", None),
    ("mpoly", "parse_poly", None),
    ("exactnum", "CycloNum.__mul__", "exactnum.CycloNum.mul"),
    ("exactnum", "CycloNum.__add__", "exactnum.CycloNum.add"),
    ("exactnum", "CycloNum.inverse", None),
    ("exactnum", "CycloNum.conjugate", None),
    ("chartab", "inner_product", None),
    ("chartab", "decompose", None),
    ("chartab", "sym_power_character", None),
    ("chartab", "character_table", None),
    ("chartab", "conjugacy_classes", None),
    ("pfaffian", "SkewMatrix.pfaffian", None),
    ("pfaffian", "SkewMatrix.sub_pfaffian", None),
    ("pfaffian", "SkewMatrix.adjugate", None),
    ("golden", "load_poly", "golden.load"),
    ("golden", "load_poly_list", "golden.load"),
    ("golden", "load_matrix", "golden.load"),
    ("golden", "load_sections", "golden.load"),
    ("golden", "load_labeled", "golden.load"),
)

# Shared constructions; ``misses`` counts the ones actually built (the
# lru_cache misses, or every call for the uncached ones).
CONSTRUCTIONS = (
    ("heisenberg", "s_matrix"),
    ("grassfano", "theta_plucker_d11"),
    ("grassfano", "klein_from_hyperplanes"),
    ("grassfano", "jacobian_system"),
    ("surface9", "theta9_closed_form"),
    ("surface9", "degenerate_fiber_ideal"),
    ("surface9", "j_family"),
)

RANK_MOD = "linalg.rank_mod"
POINT_BLOCKS = "ffscan.point_blocks"
GRADED_HILBERT = "hilbert.graded_hilbert"

# Counts that must repeat exactly on identical inputs.
EXACT = (
    "ffscan.points",
    "ffscan.blocks",
    "ffscan.rank_at_point.calls",
    "linalg.rank_mod.cells",
    "linalg.rank_fraction.calls",
    "hilbert.macaulay.shapes",
    "hilbert.macaulay.max_rows",
    "hilbert.macaulay.max_cols",
    "exactnum.CycloNum.mul.calls",
)


def _module(name: str):
    return importlib.import_module(f"heisencheck.{name}")


def _resolve(module: str, path: str):
    owner = _module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    # the class dict holds the plain function, not a bound method
    return vars(owner)[attr]


class Recorder:
    """Context manager that traces heisencheck while it is active."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, s, self_s]
        self.counts = {"ffscan.points": 0, "ffscan.blocks": 0, "linalg.rank_mod.cells": 0}
        self.shapes: list[tuple[int, int]] = []  # Macaulay matrices, call order
        self._stack: list[list] = []  # open spans: [name, child seconds]
        self._depth: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._cached: dict[str, tuple[object, int]] = {}

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> list:
        frame = [name, 0.0]
        self._stack.append(frame)
        self._depth[name] = self._depth.get(name, 0) + 1
        return frame

    def _close(self, frame: list, duration: float) -> None:
        name = frame[0]
        self._stack.pop()
        self._depth[name] -= 1
        stat = self.stats[name]
        stat[0] += 1
        stat[2] += duration - frame[1]
        if not self._depth[name]:
            stat[1] += duration
        if self._stack:
            self._stack[-1][1] += duration

    def _wrap(self, name: str, fn, before=None):
        self.stats.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            frame = self._open(name)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame, time.perf_counter() - start)

        return wrapper

    def _wrap_blocks(self, fn):
        """Time each ``next()`` of the point generator and count its output."""
        self.stats.setdefault(POINT_BLOCKS, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            blocks = fn(*args, **kwargs)
            while True:
                frame = self._open(POINT_BLOCKS)
                start = time.perf_counter()
                try:
                    block = next(blocks)
                except StopIteration:
                    return
                finally:
                    self._close(frame, time.perf_counter() - start)
                self.counts["ffscan.blocks"] += 1
                self.counts["ffscan.points"] += len(block)
                yield block

        return wrapper

    def _before_rank_mod(self, args) -> None:
        rows, cols = np.shape(args[0])
        self.counts["linalg.rank_mod.cells"] += rows * cols
        if self._stack and self._stack[-1][0] == GRADED_HILBERT:
            self.shapes.append((rows, cols))

    # -- installation ----------------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        """Put the wrapper at every binding site of the original object."""
        owners = [m for n, m in list(sys.modules.items())
                  if n == "heisencheck" or n.startswith("heisencheck.")]
        owners += [v for m in owners for v in vars(m).values() if isinstance(v, type)]
        found = False
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    self._patches.append((owner, key, value))
                    setattr(owner, key, wrapper)
                    found = True
        if not found:
            raise LookupError(f"no binding site holds {original!r}")

    def __enter__(self) -> "Recorder":
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self) -> None:
        for module, path, name in FUNCTIONS:
            original = _resolve(module, path)
            self._replace(original, self._wrap(name or f"{module}.{path}", original))
        rank_mod = _resolve("linalg", "rank_mod")
        self._replace(rank_mod, self._wrap(RANK_MOD, rank_mod, self._before_rank_mod))
        point_blocks = _resolve("ffscan", "point_blocks")
        self._replace(point_blocks, self._wrap_blocks(point_blocks))
        for module, attr in CONSTRUCTIONS:
            name = f"{module}.{attr}"
            original = _resolve(module, attr)
            info = getattr(original, "cache_info", None)
            self._cached[name] = (original, info().misses if info else 0)
            self._replace(original, self._wrap(name, original))
        checks = _module("checks")
        wrapped = tuple(
            dataclasses.replace(spec, fn=self._wrap(f"checks.{spec.check_id}", spec.fn))
            for spec in checks.CHECKS
        )
        self._replace(checks.CHECKS, wrapped)

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict:
        """Flat name -> value map of every span, count and construction."""
        out: dict = dict(self.counts)
        for name, (calls, total, own) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = total
            out[f"{name}.self_s"] = own
        for name, (original, base) in self._cached.items():
            info = getattr(original, "cache_info", None)
            calls = self.stats[name][0]
            out[f"{name}.misses"] = info().misses - base if info else calls
        out["ffscan.point_gen_s"] = self.stats[POINT_BLOCKS][1]
        # scan_strata's children are point generation, the rank_at_point
        # cross-check and cached lookups; what remains is the batch kernel
        out["ffscan.kernel_s"] = self.stats["ffscan.scan_strata"][2]
        out["hilbert.macaulay.shapes"] = [list(s) for s in self.shapes]
        rows, cols = max(self.shapes, key=lambda s: s[0] * s[1], default=(0, 0))
        out["hilbert.macaulay.max_rows"] = rows
        out["hilbert.macaulay.max_cols"] = cols
        return out
