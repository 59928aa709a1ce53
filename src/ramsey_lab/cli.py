"""Command-line entry point exposing every module with scriptable output.

Graphs are given as DSL terms (``K3``, ``K1,2+K2``, ``T(3,2)``) or as
``@file`` references to edge-list files.  Output is plain ``key: value``
text, or CSV for sweeps; re-running a printed command reproduces the
output byte for byte (sweeps are seeded).  Exit codes: 0 success, 1
domain refusal (budget, open problem), 2 parse error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys

from . import gnp, mf
from .arrows import DEFAULT_EDGE_BUDGET, arrows, constrained_ramsey_number
from .constructions import (
    AvoidMode,
    avoid_colouring,
    component_mono_colouring,
    constellation_arrow_tree,
    star_arrow_tree,
)
from .densities import GraphClass, classify, max_2_density, max_density
from .errors import (
    BudgetError,
    ConstructionStall,
    DomainError,
    GraphParseError,
    OpenProblemError,
)
from .graphs import Colouring, Graph, parse_graph
from .threshold import threshold
from .tree_labels import descendant_colouring, min_max_path_product, rainbow_binary_host
from .trees import RootedTree, complete_ary_tree


def load_graph(spec: str) -> Graph:
    if spec.startswith("@"):
        try:
            with open(spec[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise GraphParseError(f"cannot read edge list: {exc}") from exc
        return parse_graph(text)
    return parse_graph(spec)


def _default_jobs() -> int:
    try:
        return max(1, int(os.environ.get("RAMSEY_LAB_JOBS", "1")))
    except ValueError:
        return 1


def _density(args) -> None:
    g = load_graph(args.graph)
    both = not (args.m or args.m2)
    if args.m or both:
        print(f"m = {max_density(g)}")
    if args.m2 or both:
        print(f"m2 = {max_2_density(g)}")


def _classify(args) -> None:
    cls = classify(load_graph(args.graph))
    for field in dataclasses.fields(GraphClass):
        name = field.name.removeprefix("is_").removeprefix("k_")
        print(f"{name}: {str(getattr(cls, field.name)).lower()}")


def _arrow(args) -> None:
    verdict = arrows(
        load_graph(args.g),
        load_graph(args.h1),
        load_graph(args.h2),
        edge_budget=args.edge_budget,
    )
    if verdict.arrows:
        print(f"Arrows ({verdict.colourings_examined} colourings examined)")
    else:
        cx = verdict.counterexample
        body = " ".join(f"({u},{v})={c}" for (u, v), c in zip(cx.edges, cx.colours))
        print(
            f"NotArrows (counterexample: {body};"
            f" {verdict.colourings_examined} colourings examined)"
        )


def _ramsey_number(args) -> None:
    got = constrained_ramsey_number(
        load_graph(args.h1), load_graph(args.h2), args.n_max, edge_budget=args.edge_budget
    )
    print(f"r_c = {got}" if got is not None else f"r_c > {args.n_max}")


def _threshold(args) -> None:
    t = threshold(
        load_graph(args.h1),
        load_graph(args.h2),
        resolve_bounds=not args.no_resolve,
        vertex_budget=args.vertex_budget,
        copies_cap=args.copies_cap,
        edge_budget=args.edge_budget,
    )
    print(t.describe())


def _mf(args) -> None:
    report = mf.solve(
        load_graph(args.h1),
        load_graph(args.h2),
        vertex_budget=args.vertex_budget,
        copies_cap=args.copies_cap,
        edge_budget=args.edge_budget,
    )
    print(report.to_text())


def _f_of_h(args) -> None:
    best = min_max_path_product(load_graph(args.graph), edge_budget=args.edge_budget)
    print(f"f = {best.value}")
    print(f"root = {best.root}")
    print("labels: " + " ".join(f"({u},{v})={c}" for (u, v), c in sorted(best.labels.items())))


# colour mode -> colouring of the forest f, rooted at ``root`` where that matters
COLOUR_MODES = {
    "high-degree": lambda f, root: avoid_colouring(f, AvoidMode.HIGH_DEGREE),
    "long-path": lambda f, root: avoid_colouring(f, AvoidMode.LONG_PATH),
    "component-mono": lambda f, root: component_mono_colouring(f),
    "descendant": lambda f, root: descendant_colouring(RootedTree.from_graph(f, root)),
}


def _colour(args) -> None:
    chi = COLOUR_MODES[args.mode](load_graph(args.f), args.root)
    if isinstance(chi, Colouring):
        items = zip(chi.edges, chi.colours)
    else:
        items = sorted(chi.items())
    for (u, v), c in items:
        print(f"({u},{v}): {c}")


def _construct(args) -> None:
    if args.kind == "star-arrow":
        if args.s is None or args.h2 is None:
            raise DomainError("star-arrow needs --s and --h2")
        plan = star_arrow_tree(args.s, load_graph(args.h2))
        print(f"arity = {plan.tree.d}")
        print(f"height = {plan.tree.h}")
        print(f"vertices = {plan.tree.n}")
        print(f"pattern-root = {plan.rooted_completion.root}")
        if args.edges:
            for u, v in plan.tree.graph.sorted_edges:
                print(f"{u} {v}")
    elif args.kind == "constellation":
        if args.s is None:
            raise DomainError("constellation needs --s")
        t = constellation_arrow_tree(args.s)
        print(f"arity = {t.d}")
        print(f"height = {t.height}")
        print(f"vertices = {t.n}")
    elif args.kind == "ary-tree":
        if args.d is None or args.height is None:
            raise DomainError("ary-tree needs --d and --height")
        t = complete_ary_tree(args.d, args.height)
        print(f"vertices = {t.n}")
        if args.edges:
            for u, v in t.graph.sorted_edges:
                print(f"{u} {v}")
    else:
        if args.height is None:
            raise DomainError("binary-host needs --height")
        t = rainbow_binary_host(args.height)
        print(f"vertices = {t.n}")
        print(f"leaves = {t.level_sizes[-1]}")


def _sweep(args) -> None:
    grid = gnp.parse_p_grid(args.p_grid, args.n)
    if args.mode == "containment":
        if not args.h:
            raise DomainError("containment sweep needs --h")
        rows = gnp.containment_sweep(
            load_graph(args.h), args.n, grid, args.trials, args.seed, jobs=args.jobs
        )
    else:
        if not (args.h1 and args.h2):
            raise DomainError("arrow sweep needs --h1 and --h2")
        rows = gnp.arrow_sweep(
            load_graph(args.h1), load_graph(args.h2), args.n, grid, args.trials, args.seed,
            edge_cap=args.edge_cap, jobs=args.jobs,
        )
    sys.stdout.write(gnp.rows_to_csv(rows))


# options several subcommands share, declared once: flag -> add_argument keywords
SHARED_OPTIONS = {
    "--h1": {"required": True},
    "--h2": {"required": True},
    "--vertex-budget": {"type": int, "default": mf.DEFAULT_VERTEX_BUDGET},
    "--copies-cap": {"type": int, "default": mf.DEFAULT_COPIES_CAP},
    "--edge-budget": {"type": int, "default": DEFAULT_EDGE_BUDGET},
}


def _add_shared(p: argparse.ArgumentParser, *flags: str) -> None:
    # added in place rather than through argparse parent parsers, which
    # would put them first and so reorder each command's usage and help
    for flag in flags:
        p.add_argument(flag, **SHARED_OPTIONS[flag])


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ramsey-lab",
        description="exact colouring, density and threshold computations on small graphs",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", help="maximum density and maximum 2-density")
    p.set_defaults(run=_density)
    p.add_argument("graph")
    p.add_argument("--m", action="store_true", help="print only m")
    p.add_argument("--m2", action="store_true", help="print only m2")

    p = sub.add_parser("classify", help="pattern family flags")
    p.set_defaults(run=_classify)
    p.add_argument("graph")

    p = sub.add_parser("arrow", help="does g arrow (h1, h2)?")
    p.set_defaults(run=_arrow)
    p.add_argument("--g", required=True)
    _add_shared(p, "--h1", "--h2", "--edge-budget")

    p = sub.add_parser("ramsey-number", help="least n with K_n arrowing the pair")
    p.set_defaults(run=_ramsey_number)
    _add_shared(p, "--h1", "--h2")
    p.add_argument("--n-max", type=int, required=True)
    _add_shared(p, "--edge-budget")

    p = sub.add_parser("threshold", help="threshold exponent for the pair")
    p.set_defaults(run=_threshold)
    _add_shared(p, "--h1", "--h2")
    p.add_argument("--no-resolve", action="store_true", help="skip the forest search")
    _add_shared(p, "--vertex-budget", "--copies-cap", "--edge-budget")

    p = sub.add_parser("mf", help="arrowing-forest density bounds with certificate")
    p.set_defaults(run=_mf)
    _add_shared(p, "--h1", "--h2", "--vertex-budget", "--copies-cap", "--edge-budget")

    p = sub.add_parser("f-of-h", help="optimal worst path product of a tree labelling")
    p.set_defaults(run=_f_of_h)
    p.add_argument("graph")
    p.add_argument("--edge-budget", type=int, default=10)

    p = sub.add_parser("colour", help="construct a named colouring of a forest")
    p.set_defaults(run=_colour)
    p.add_argument("--f", required=True)
    p.add_argument("--mode", required=True, choices=list(COLOUR_MODES))
    p.add_argument("--root", type=int, default=0, help="root for descendant mode")

    p = sub.add_parser("construct", help="build one of the arrowing trees")
    p.set_defaults(run=_construct)
    p.add_argument(
        "--kind",
        required=True,
        choices=["star-arrow", "constellation", "ary-tree", "binary-host"],
    )
    p.add_argument("--s", type=int)
    p.add_argument("--h2")
    p.add_argument("--d", type=int)
    p.add_argument("--height", type=int)
    p.add_argument("--edges", action="store_true", help="also print the edge list")

    p = sub.add_parser("sweep", help="seeded random-graph probes, CSV output")
    p.set_defaults(run=_sweep)
    p.add_argument("--mode", required=True, choices=["containment", "arrow"])
    p.add_argument("--h")
    p.add_argument("--h1")
    p.add_argument("--h2")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p-grid", required=True, help="comma list; terms may be c*n^q")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--edge-cap", type=int, default=DEFAULT_EDGE_BUDGET)
    p.add_argument("--jobs", type=int, default=_default_jobs())

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (``| head``) and has what it wanted;
        # point stdout at the null device so the final flush cannot fail
        # again (an in-memory stdout, as under capture, has no descriptor)
        with contextlib.suppress(AttributeError, OSError, ValueError):
            fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
    except GraphParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (BudgetError, DomainError, OpenProblemError, ConstructionStall) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
