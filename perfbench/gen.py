"""Seeded workload inputs: family specs, CLI argv lists and CSV term streams.

Everything here is a pure function of the seed and imports no convlab
code, so the same seed always yields byte-identical inputs.  Seed 0 is
exactly `convlab.default_registry()`.  Any other seed redraws each family's
parameters inside the regime that family stands for in `expected_verdicts`,
so every recorded non-edge keeps its witness.

The draws stay near the seed-0 values where the generic quadrature cost is
sharply parameter dependent: ex32 with alpha = 1/2 has the polynomial
quantile 1 - (1-w)^2 and its generic s1d cells run about ten times faster
than at any other alpha, so the boundary family keeps alpha = 1/2 and
redraws beta only.
"""

from __future__ import annotations

import random

# (kind, params) in default_registry() order
SEED0_SPECS = (
    ("ex31", {"alpha": 2.0}),
    ("ex32", {"alpha": 0.5, "beta": 2.0}),
    ("ex32", {"alpha": 0.4, "beta": 2.0}),
    ("ex33", {}),
    ("const", {"c": 0.0}),
    ("shift_uniform", {"beta": 2.0}),
)

MODE_NODES = (
    "slinf", "sl1", "s1star", "s1d", "s3d", "s1as", "cc",
    "as", "prob", "dist", "linf", "l1", "s2d",
)

CSV_TERMS = 100_000
STREAM_KINDS = ("power_converges", "power_diverges", "eventually_zero", "odd_indicator")
DIAGNOSE_GROUPS = 2  # diagnose commands per family; together they cover all 13 nodes


def _rng(seed, stream):
    return random.Random(f"perfbench:{stream}:{seed}")


def _draw(rng, lo, hi):
    return round(rng.uniform(lo, hi), 3)


def family_specs(seed):
    """The six sweep families for a seed, as (kind, params) pairs.

    Regimes kept for seed != 0:
      ex31 alpha > 1              s1d and s3d fail (witness of s2d -/-> s1d)
      ex32 (1-alpha)*beta <= 1    s2d fails (witness of s1d -/-> s2d)
      ex32 (1-alpha)*beta > 1     s2d holds
      shift_uniform beta > 1, const any c.
    """
    if seed == 0:
        return tuple((k, dict(p)) for k, p in SEED0_SPECS)
    rng = _rng(seed, "families")
    return (
        ("ex31", {"alpha": _draw(rng, 1.5, 2.5)}),
        ("ex32", {"alpha": 0.5, "beta": _draw(rng, 1.8, 2.0)}),
        ("ex32", {"alpha": _draw(rng, 0.38, 0.42), "beta": _draw(rng, 2.0, 2.2)}),
        ("ex33", {}),
        ("const", {"c": _draw(rng, -1.0, 1.0)}),
        ("shift_uniform", {"beta": _draw(rng, 1.8, 2.4)}),
    )


def family_argv(kind, params):
    """`diagnose` flags naming one family; floats are written with repr so
    they parse back to the same value."""
    argv = ["--family", kind]
    for key in ("alpha", "beta", "c"):
        if key in params:
            argv += ["--" + key, repr(float(params[key]))]
    return argv


def diagnose_commands(seed):
    """DIAGNOSE_GROUPS `diagnose` commands per family, in a seeded order,
    on a seeded partition of the 13 diagram nodes.  Every seed thus checks
    each family x node cell exactly once, so the work per seed differs only
    by the redrawn parameters.  Returns (spec, nodes, argv) triples."""
    rng = _rng(seed, "diagnose")
    out = []
    for kind, params in family_specs(seed):
        nodes = list(MODE_NODES)
        rng.shuffle(nodes)
        for group in range(DIAGNOSE_GROUPS):
            subset = sorted(nodes[group::DIAGNOSE_GROUPS], key=MODE_NODES.index)
            argv = (["diagnose"] + family_argv(kind, params)
                    + ["--modes", ",".join(subset), "--format", "json"])
            out.append(((kind, params), tuple(subset), argv))
    rng.shuffle(out)
    return out


def stream_specs(seed):
    """One term stream of each of STREAM_KINDS, parameters drawn from the
    seed: (kind, parameter) pairs."""
    rng = _rng(seed, "streams")
    out = []
    for kind in STREAM_KINDS:
        if kind == "power_converges":
            param = _draw(rng, 1.5, 2.5)
        elif kind == "power_diverges":
            param = _draw(rng, 0.5, 0.85)
        elif kind == "eventually_zero":
            param = rng.randrange(100, 5000)
        else:
            param = None
        out.append((kind, param))
    return out


def stream_terms(seed, index, kind, param, count=CSV_TERMS):
    """The terms of one stream, n = 1..count."""
    if kind in ("power_converges", "power_diverges"):
        return [n ** -param for n in range(1, count + 1)]
    if kind == "eventually_zero":
        rng = _rng(seed, f"stream{index}")
        return [rng.random() if n <= param else 0.0 for n in range(1, count + 1)]
    if kind == "odd_indicator":
        return [float(n % 2) for n in range(1, count + 1)]
    raise ValueError(f"unknown stream kind {kind!r}")


def csv_text(terms):
    return "term\n" + "".join(f"{t!r}\n" for t in terms)
