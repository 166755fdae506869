"""Command-line front end.

Subcommands:
  list      show the family catalog and implication diagram
  diagnose  classify convergence modes for one family
  matrix    run the full soundness sweep (optionally with an injected edge)
  series    classify a term stream from a CSV file

Exit codes: 0 success, 1 unexpected failure, 2 bad parameters, 3 requested
accuracy not met, 4 diagram violation found by `matrix`.

--n-max sets the series engine's horizon n_max, its one setting.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import sys

from .errors import AccuracyError, ConvlabError, ParameterError
from .modes import (ALL_MODES, ModeParams, check_mode, probe_key,
                    probe_source, probes_for)
from .registry import (_BUILDERS, NODE_MODES, SCHEMA_VERSION, build_family,
                       default_registry, export_catalog, mode_diagram,
                       soundness_sweep)
from .series import DEFAULT_POLICY, EnginePolicy, analyze_series, load_terms_csv

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARAMETER = 2
EXIT_ACCURACY = 3
EXIT_VIOLATION = 4

# diagnose's family flags: every parameter a registered builder takes
_FAMILY_PARAMS = tuple(dict.fromkeys(
    name for build in _BUILDERS.values() for name in inspect.signature(build).parameters))


def _policy_from(args):
    return DEFAULT_POLICY if args.n_max is None else EnginePolicy(n_max=args.n_max)


def _emit(args, payload, table_fn):
    """Print payload, with the engine policy under --show-policy."""
    if args.show_policy:
        payload["policy"] = _policy_from(args).to_dict()
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
        return
    table_fn(payload)
    if args.show_policy:
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

    def table(cat):
        rows = [
            (f["name"], f["kind"],
             ", ".join(f"{k}={v:g}" for k, v in sorted(f["params"].items())) or "-")
            for f in cat["families"]
        ]
        _print_rows(rows, ("family", "kind", "parameters"))
        d = cat["diagram"]
        print(f"\ndiagram: {len(d['nodes'])} modes, {len(d['edges'])} implications "
              f"(transitively closed), {len(d['non_edges'])} non-implications "
              f"claimed by the expected verdicts")

    _emit(args, catalog, table)
    return EXIT_OK


def _dump_terms(fh, path, family, modes, count):
    """Per-term CSV: mode, probe, n, term.  Deterministic ordering.  Closes
    fh: a short dump stays in the write buffer, so a full disk shows only
    when the file closes."""
    import csv

    try:
        with fh:
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
    policy = _policy_from(args)
    if args.dump_count < 1:
        raise ParameterError(f"--dump-count must be at least 1, got {args.dump_count}")
    if args.dump_count > policy.n_max:
        raise ParameterError(f"--dump-count must be at most the horizon "
                             f"n_max={policy.n_max}, got {args.dump_count}")
    family = build_family(args.family, **{k: v for k, v in vars(args).items()
                                          if k in _FAMILY_PARAMS})
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
        "schema_version": SCHEMA_VERSION,
        "family": family.describe(),
        "reports": [r.to_dict() for r in reports],
    }

    def table(pl):
        print(f"family: {pl['family']['name']}")
        rows = [
            (r["mode"], r["verdict"], r["witness"] or "-")
            for r in pl["reports"]
        ]
        _print_rows(rows, ("mode", "verdict", "witness"))

    _emit(args, payload, table)
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
        print(f"\nordered pairs: {len(diagram.edges)} implied, "
              f"{len(pl['witnessed'])} witnessed by a family, {len(pl['open'])} open")
        targets = {}
        for a, b in pl["open"]:
            targets.setdefault(a, []).append(b)
        for a, bs in targets.items():
            print(f"  open: {a} -> {', '.join(bs)}")

    _emit(args, payload, table)
    return EXIT_OK if report.ok else EXIT_VIOLATION


def cmd_series(args):
    policy = _policy_from(args)
    src = load_terms_csv(args.input)
    verdict = analyze_series(src, policy)
    payload = {"schema_version": SCHEMA_VERSION, "input": args.input,
               "verdict": verdict.to_dict()}

    def table(pl):
        v = pl["verdict"]
        print(f"{pl['input']}: {v['class']} (n_used={v['n_used']})")
        for k in ("sum_estimate", "tail_bound", "p_hat", "ci_halfwidth"):
            if k in v:
                print(f"  {k} = {v[k]:.6g}")
        print(f"  evidence: {v['evidence']}")

    _emit(args, payload, table)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="convlab",
        description="laboratory for modes of convergence of random variables",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("table", "json"), default="table")
        p.add_argument("--show-policy", action="store_true",
                       help="include the engine policy in the output")
        p.add_argument("--n-max", type=int, default=None,
                       help="series engine horizon")

    p_list = sub.add_parser("list", help="show the family catalog and diagram")
    common(p_list)
    p_list.set_defaults(func=cmd_list)

    p_diag = sub.add_parser("diagnose", help="classify modes for one family")
    p_diag.add_argument("--family", required=True,
                        help=f"family kind: {', '.join(sorted(_BUILDERS))}")
    for name in _FAMILY_PARAMS:
        p_diag.add_argument(f"--{name}", type=float, default=argparse.SUPPRESS)
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


def _attach_numbers(argv):
    """argv with each family flag joined to a value after it that reads as
    a number, which argparse takes for a flag when it is -1e-05 or -inf."""
    flags = {f"--{name}" for name in _FAMILY_PARAMS}
    out = []
    for arg in argv:
        if out and out[-1] in flags:
            with contextlib.suppress(ValueError):
                float(arg)
                out[-1] += "=" + arg
                continue
        out.append(arg)
    return out


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_attach_numbers(sys.argv[1:] if argv is None else argv))
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
