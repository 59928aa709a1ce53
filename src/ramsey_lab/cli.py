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
from .densities import (
    DEFAULT_DENSITY_VERTEX_BUDGET,
    GraphClass,
    classify,
    max_2_density,
    max_density,
)
from .errors import DomainError, GraphParseError, RamseyLabError
from .graphs import Colouring, Graph, parse_graph
from .threshold import threshold
from .tree_labels import DEFAULT_LABEL_BUDGET, descendant_colouring, min_max_path_product, rainbow_binary_host
from .trees import CompleteAryTree, LayeredTree, RootedTree


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
        print(f"m = {max_density(g, args.density_budget)}")
    if args.m2 or both:
        print(f"m2 = {max_2_density(g, args.density_budget)}")


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
        density_budget=args.density_budget,
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


def _ary_header(t: CompleteAryTree) -> dict[str, int]:
    return {"arity": t.d, "height": t.h, "vertices": t.n}


def _star_arrow(s: int, h2: str) -> tuple[LayeredTree, dict[str, int]]:
    plan = star_arrow_tree(s, load_graph(h2))
    return plan.tree, {**_ary_header(plan.tree), "pattern-root": plan.rooted_completion.root}


def _binary_host(h: int) -> tuple[LayeredTree, dict[str, int]]:
    t = rainbow_binary_host(h)
    return t, {"vertices": t.n, "leaves": t.level_sizes[-1]}


# construct kind -> (options it needs, builder of its lazy host and header from them)
CONSTRUCT_KINDS = {
    "star-arrow": (("s", "h2"), _star_arrow),
    "constellation": (("s",), lambda s: (t := constellation_arrow_tree(s), _ary_header(t))),
    "ary-tree": (("d", "height"), lambda d, h: (t := CompleteAryTree(d, h), {"vertices": t.n})),
    "binary-host": (("height",), _binary_host),
}


def _construct(args) -> None:
    needs, build = CONSTRUCT_KINDS[args.kind]
    values = [getattr(args, opt) for opt in needs]
    if None in values:
        raise DomainError(f"{args.kind} needs " + " and ".join(f"--{opt}" for opt in needs))
    host, header = build(*values)
    # the graph and the header text come first, so a refusal prints nothing
    edges = host.graph.sorted_edges if args.edges else ()
    print("\n".join(f"{key} = {value}" for key, value in header.items()))
    for u, v in edges:
        print(f"{u} {v}")


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
    "--density-budget": {
        "type": int,
        "default": DEFAULT_DENSITY_VERTEX_BUDGET,
        "help": "most vertices for the 2^n subset walk behind m and m2",
    },
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
    _add_shared(p, "--density-budget")

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
    _add_shared(p, "--vertex-budget", "--copies-cap", "--edge-budget", "--density-budget")

    p = sub.add_parser("mf", help="arrowing-forest density bounds with certificate")
    p.set_defaults(run=_mf)
    _add_shared(p, "--h1", "--h2", "--vertex-budget", "--copies-cap", "--edge-budget")

    p = sub.add_parser("f-of-h", help="optimal worst path product of a tree labelling")
    p.set_defaults(run=_f_of_h)
    p.add_argument("graph")
    p.add_argument("--edge-budget", type=int, default=DEFAULT_LABEL_BUDGET)

    p = sub.add_parser("colour", help="construct a named colouring of a forest")
    p.set_defaults(run=_colour)
    p.add_argument("--f", required=True)
    p.add_argument("--mode", required=True, choices=list(COLOUR_MODES))
    p.add_argument("--root", type=int, default=0, help="root for descendant mode")

    p = sub.add_parser("construct", help="build one of the arrowing trees")
    p.set_defaults(run=_construct)
    p.add_argument("--kind", required=True, choices=list(CONSTRUCT_KINDS))
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
    except RamseyLabError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # an int too long for the interpreter to print is refused like any size
        if "integer string conversion" not in str(exc):
            raise
        digits = sys.get_int_max_str_digits()
        print(f"refused: a count has more than {digits} digits to print", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
