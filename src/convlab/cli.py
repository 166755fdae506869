"""Command-line front end.

Subcommands:
  list      show the family catalog and implication diagram
  diagnose  classify convergence modes for one family
  matrix    run the full soundness sweep (optionally with an injected edge)
  series    classify a term stream from a CSV file

Exit codes: 0 success, 1 unexpected failure, 2 bad parameters, 3 requested
accuracy not met, 4 diagram violation found by `matrix`.

CONVLAB_NMAX overrides the engine's n_max (same effect as --n-max).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys

from .errors import AccuracyError, ConvlabError, ParameterError
from .modes import (ALL_MODES, ModeParams, check_mode, probe_key,
                    probe_source, probes_for)
from .registry import (NODE_MODES, build_family, default_registry,
                       export_catalog, mode_diagram, soundness_sweep)
from .series import DEFAULT_POLICY, analyze_series, load_terms_csv

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARAMETER = 2
EXIT_ACCURACY = 3
EXIT_VIOLATION = 4

NMAX_ENV = "CONVLAB_NMAX"


def _policy_from(args):
    n_max = getattr(args, "n_max", None)
    if n_max is None and os.environ.get(NMAX_ENV):
        try:
            n_max = int(os.environ[NMAX_ENV])
        except ValueError:
            raise ParameterError(
                f"{NMAX_ENV} must be an integer, got {os.environ[NMAX_ENV]!r}"
            )
    if n_max is None:
        return DEFAULT_POLICY
    return dataclasses.replace(DEFAULT_POLICY, n_max=n_max)


def _emit(payload, fmt, table_fn):
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
        return
    table_fn(payload)
    if "policy" in payload:
        print("policy: " + ", ".join(f"{k}={v}" for k, v in payload["policy"].items()))


def _print_rows(rows, header):
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    line = "  ".join(str(h).ljust(w) for h, w in zip(header, widths))
    print(line)
    print("  ".join("-" * w for w in widths))
    for r in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))


def cmd_list(args):
    catalog = export_catalog()
    if args.show_policy:
        catalog["policy"] = _policy_from(args).to_dict()

    def table(cat):
        rows = [
            (f["name"], f["kind"],
             ", ".join(f"{k}={v:g}" for k, v in sorted(f["params"].items())) or "-")
            for f in cat["families"]
        ]
        _print_rows(rows, ("family", "kind", "parameters"))
        d = cat["diagram"]
        print(f"\ndiagram: {len(d['nodes'])} modes, {len(d['edges'])} implications "
              f"(transitively closed), {len(d['non_edges'])} recorded non-implications")

    _emit(catalog, args.format, table)
    return EXIT_OK


def _family_from_args(args):
    params = {}
    for key in ("alpha", "beta", "c"):
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    return build_family(args.family, **params)


def _dump_terms(fh, path, family, modes, count):
    """Per-term CSV: mode, probe, n, term.  Deterministic ordering."""
    import csv

    try:
        writer = csv.writer(fh)
        writer.writerow(["mode", "probe", "n", "term"])
        for mode, tag, params in modes:
            for probe in probes_for(tag, params):
                vals = probe_source(family, tag, probe, params).terms(1, count + 1)
                key = probe_key(probe)
                for n, v in enumerate(vals, start=1):
                    writer.writerow([mode, key, n, repr(float(v))])
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc}") from exc


def cmd_diagnose(args):
    if args.dump_count < 1:
        raise ParameterError(f"--dump-count must be at least 1, got {args.dump_count}")
    family = _family_from_args(args)
    policy = _policy_from(args)
    modes = args.modes.split(",") if args.modes else list(ALL_MODES)
    # open the dump file first, so an unwritable path fails before any work
    dump = contextlib.nullcontext()
    if args.dump_terms:
        try:
            dump = open(args.dump_terms, "w", newline="")
        except OSError as exc:
            raise ParameterError(f"cannot write {args.dump_terms}: {exc}") from exc
    reports = []
    dump_specs = []
    with dump as fh:
        for mode in modes:
            # tolerate hyphenated spellings like "s-linf"
            mode = mode.strip().lower().replace("-", "")
            tag, overrides = NODE_MODES.get(mode, (mode, {}))
            params = ModeParams.defaults(family, **overrides)
            rep = check_mode(family, tag, params, policy)
            rep.mode = mode
            reports.append(rep)
            dump_specs.append((mode, tag, params))
        if fh is not None:
            _dump_terms(fh, args.dump_terms, family, dump_specs, args.dump_count)
    payload = {
        "schema_version": 1,
        "family": family.describe(),
        "reports": [r.to_dict() for r in reports],
    }
    if args.show_policy:
        payload["policy"] = policy.to_dict()

    def table(pl):
        print(f"family: {pl['family']['name']}")
        rows = [
            (r["mode"], r["verdict"], r["witness"] or "-")
            for r in pl["reports"]
        ]
        _print_rows(rows, ("mode", "verdict", "witness"))

    _emit(payload, args.format, table)
    return EXIT_OK


def cmd_matrix(args):
    policy = _policy_from(args)
    diagram = mode_diagram()
    if args.inject_edge:
        try:
            a, b = args.inject_edge.split(",")
        except ValueError:
            raise ParameterError("--inject-edge expects SOURCE,TARGET")
        a, b = a.strip(), b.strip()
        for node in (a, b):
            if node not in diagram.nodes:
                raise ParameterError(
                    f"unknown node {node!r}; valid nodes: {', '.join(diagram.nodes)}"
                )
        diagram = diagram.with_edge(a, b)
    report = soundness_sweep(diagram, default_registry(), policy)
    payload = report.to_dict()
    if args.show_policy:
        payload["policy"] = policy.to_dict()

    def table(pl):
        nodes = pl["nodes"]
        short = {"holds": "H", "fails": "F", "not_falsified": "nf",
                 "inconclusive": "?"}
        rows = []
        for fam in pl["families"]:
            rows.append(
                (fam,) + tuple(short[pl["verdicts"][fam][n]["verdict"]] for n in nodes)
            )
        _print_rows(rows, ("family",) + tuple(nodes))
        print("\nH=holds  F=fails  nf=not falsified  ?=inconclusive")
        if pl["violations"]:
            print(f"\nVIOLATIONS ({len(pl['violations'])}):")
            for v in pl["violations"]:
                print(f"  [{v['kind']}] {v['source']} -> {v['target']}"
                      f" ({v['family']}): {v['detail']}")
        else:
            print("\nno violations")
        if pl["coverage_gaps"]:
            print(f"coverage gaps ({len(pl['coverage_gaps'])}):")
            for g in pl["coverage_gaps"]:
                print(f"  {g}")

    _emit(payload, args.format, table)
    return EXIT_OK if report.ok else EXIT_VIOLATION


def cmd_series(args):
    policy = _policy_from(args)
    src = load_terms_csv(args.input)
    verdict = analyze_series(src, policy)
    payload = {"schema_version": 1, "input": args.input, "verdict": verdict.to_dict()}
    if args.show_policy:
        payload["policy"] = policy.to_dict()

    def table(pl):
        v = pl["verdict"]
        print(f"{pl['input']}: {v['class']} (n_used={v['n_used']})")
        for k in ("sum_estimate", "tail_bound", "p_hat", "ci_halfwidth"):
            if k in v:
                print(f"  {k} = {v[k]:.6g}")
        print(f"  evidence: {v['evidence']}")

    _emit(payload, args.format, table)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="convlab",
        description="laboratory for modes of convergence of random variables",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_nmax=True):
        p.add_argument("--format", choices=("table", "json"), default="table")
        p.add_argument("--show-policy", action="store_true",
                       help="include the engine policy in the output")
        if with_nmax:
            p.add_argument("--n-max", type=int, default=None,
                           help=f"series engine horizon (env: {NMAX_ENV})")

    p_list = sub.add_parser("list", help="show the family catalog and diagram")
    common(p_list)
    p_list.set_defaults(func=cmd_list)

    p_diag = sub.add_parser("diagnose", help="classify modes for one family")
    p_diag.add_argument("--family", required=True,
                        help="family kind: ex31, ex32, ex33, shift_uniform, const")
    p_diag.add_argument("--alpha", type=float, default=None)
    p_diag.add_argument("--beta", type=float, default=None)
    p_diag.add_argument("--c", type=float, default=None)
    p_diag.add_argument("--modes", default=None,
                        help="comma-separated mode tags or diagram node names "
                             "(default: all modes)")
    p_diag.add_argument("--dump-terms", default=None, metavar="FILE",
                        help="write per-term CSV (mode,probe,n,term)")
    p_diag.add_argument("--dump-count", type=int, default=100,
                        help="number of terms per probe in --dump-terms")
    common(p_diag)
    p_diag.set_defaults(func=cmd_diagnose)

    p_mat = sub.add_parser("matrix", help="full family-by-mode soundness sweep")
    p_mat.add_argument("--inject-edge", default=None, metavar="SOURCE,TARGET",
                       help="add one extra implication arrow before sweeping "
                            "(for exercising violation detection)")
    common(p_mat)
    p_mat.set_defaults(func=cmd_matrix)

    p_ser = sub.add_parser("series", help="classify a CSV term stream")
    p_ser.add_argument("--input", required=True, help="CSV file, one term per line")
    common(p_ser)
    p_ser.set_defaults(func=cmd_series)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except AccuracyError as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        return EXIT_ACCURACY
    except ConvlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
