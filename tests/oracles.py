"""Reference implementations that more than one test module checks against."""

from heisencheck.mpoly import SparsePoly


def partial(f: SparsePoly, i: int) -> SparsePoly:
    """d f / d x_i."""
    return SparsePoly(f.nvars, {
        tuple(e - (k == i) for k, e in enumerate(exps)): c * exps[i]
        for exps, c in f.terms.items() if exps[i]
    })
