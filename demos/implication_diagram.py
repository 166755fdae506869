"""Tour of the implication diagram and the soundness harness.

The thirteen modes form a directed graph of implications; the catalog
families witness the non-implications.  The sweep machine-checks both
directions: no family may violate an arrow, and every ordered pair of modes
that no arrow implies is either witnessed by a family that holds the first
and fails the second, or reported open.  Injecting a known-false arrow shows
the harness catching it.

Run: python demos/implication_diagram.py
"""

from convlab import (default_registry, export_catalog, mode_diagram,
                     soundness_sweep)


def main():
    diagram = mode_diagram()
    print(f"nodes ({len(diagram.nodes)}): {', '.join(diagram.nodes)}")
    print(f"edges after transitive closure: {len(diagram.edges)}")
    print("non-implications the catalog's expected verdicts claim:")
    for ne in export_catalog()["diagram"]["non_edges"]:
        print(f"   {ne['source']:6s} =/=> {ne['target']:6s}  witness: {ne['witness']}")

    families = default_registry()
    print(f"\nsweeping {len(families)} families x {len(diagram.nodes)} modes ...")
    report = soundness_sweep(diagram, families)
    print(f"violations: {len(report.violations)}")
    for gap in report.coverage_gaps:
        print(f"coverage gap: {gap}")
    print(f"ordered pairs: {len(diagram.edges)} implied, "
          f"{len(report.witnessed)} witnessed, {len(report.open_pairs)} open")
    for a, b in report.open_pairs[:5]:
        print(f"   open: {a} -> {b}")
    print("   ...")

    print("\nnow inject the known-false arrow s2d => s1d and sweep again:")
    bad = diagram.with_edge("s2d", "s1d")
    report = soundness_sweep(bad, families)
    for v in report.violations:
        print(f"violation [{v.kind}] {v.source} -> {v.target}: {v.detail}")


if __name__ == "__main__":
    main()
