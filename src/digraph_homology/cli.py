"""Command-line interface.

Commands: `homology` (path or cubical, absolute or relative, optionally
reduced), `build` (cone / suspend / boxprod pipelines), `hurewicz`
(classes of a grid map), `compare` (the cubical-to-path comparison
matrix), and `verify` (certificates, long-exact-sequence exactness, and
the built-in verification suite).  `--theory` picks one of `THEORIES`,
the two `chains.Theory` objects.

Exit codes: 0 success, 1 failed verification, 2 parse error, 3 bound
exceeded (a degree with more than `paths.PATH_BOUND` allowed paths or
`cubes.CUBE_BOUND` singular cubes, refused by `main` whichever command
asked for it, or a `build` result with more than `paths.PATH_BOUND`
arrows, counted before it is built), 4 invalid subdigraph, 5 invalid grid
map (for `hurewicz`, also a map without a class: 0-dimensional, or a cell
chain that is no cycle).
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import count
from pathlib import Path
from typing import Optional

from .chains import BoundExceededError, NotACycleError, verify_exactness
from .cubes import CUBICAL, comparison_L
from .digraphs import (
    Digraph,
    DigraphError,
    NotASubdigraphError,
    box_product,
    build_digraph,
    digraph_from_json,
    digraph_to_json,
    is_subdigraph,
    relabel_to_strings,
)
from .grids import (
    GridError,
    WrongDimensionError,
    certificate_from_json,
    glmy_hurewicz,
    grid_map_from_json,
    grid_map_violation,
    hurewicz_chain,
    hurewicz_class,
    verify_homotopy_certificate,
)
from .intlinalg import AbelianGroup
from .paths import PATH, PATH_BOUND

EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_BOUND = 3
EXIT_SUBDIGRAPH = 4
EXIT_GRIDMAP = 5

THEORIES = {"path": PATH, "cubical": CUBICAL}


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_PARSE)


def _load_digraph(path: str) -> Digraph:
    try:
        return digraph_from_json(_load_json(path))
    except DigraphError as exc:
        raise CliError(f"bad digraph in {path}: {exc}", EXIT_PARSE)


def _load_entry(data, base_dir: Path, what: str) -> Digraph:
    """A digraph given inline, or as a file name relative to base_dir."""
    if isinstance(data, str):
        return _load_digraph(str(base_dir / data))
    try:
        return digraph_from_json(data)
    except DigraphError as exc:
        raise CliError(f"bad {what}: {exc}", EXIT_PARSE)


def _group_report(name: str, group: AbelianGroup, json_output: bool) -> str:
    if json_output:
        return json.dumps(group.to_json())
    return f"{name} = {group}"


def _require_degree(dim: int, flag: str = "--dim") -> None:
    if dim < 0:
        raise CliError(f"{flag} must be non-negative, got {dim}", EXIT_PARSE)


def cmd_homology(args) -> int:
    _require_degree(args.dim)
    g = _load_digraph(args.input)
    rel: Optional[Digraph] = None
    if args.relative:
        rel = _load_entry(_load_json(args.relative), Path(args.relative).parent, "subdigraph")
        if not is_subdigraph(rel, g):
            raise CliError("the relative file is not a subdigraph of the input", EXIT_SUBDIGRAPH)
    try:
        group = THEORIES[args.theory].homology(g, args.dim, rel, args.reduced)
    except NotASubdigraphError as exc:
        raise CliError(str(exc), EXIT_SUBDIGRAPH)
    print(_group_report(f"H_{args.dim}", group, args.json))
    return 0


def cmd_build(args) -> int:
    if args.times < 0:
        raise CliError(f"--times must be non-negative, got {args.times}", EXIT_PARSE)
    if args.op == "boxprod" and len(args.inputs) < 2:
        raise CliError("boxprod needs two inputs", EXIT_PARSE)
    files = args.inputs if args.op == "boxprod" else args.inputs[:1]
    inputs = [_load_digraph(path) for path in files]
    arrows = _arrow_count(args.op, inputs, args.times)
    if arrows > PATH_BOUND:
        raise BoundExceededError(
            f"the result has {arrows} arrows: degree 1 has more than {PATH_BOUND} allowed paths"
        )
    if args.op == "cone":
        out = _add_apexes(inputs[0], ("+a",), args.times)
    elif args.op == "suspend":
        out = _add_apexes(inputs[0], ("+a", "+b"), args.times)
    else:
        out = inputs[0]
        try:
            for h in inputs[1:]:
                out = relabel_to_strings(box_product(out, h))
        except DigraphError as exc:
            raise CliError(str(exc), EXIT_PARSE)
    payload = json.dumps(digraph_to_json(relabel_to_strings(out)), indent=2)
    if args.output:
        Path(args.output).write_text(payload + "\n")
    else:
        print(payload)
    return 0


def _arrow_count(op: str, inputs: list, times: int) -> int:
    """The arrow count of what `build` makes, in closed form, before it is built."""
    v, a = len(inputs[0].vertices), len(inputs[0].arrows)
    if op == "cone":  # the i-th cone joins v + i vertices to its apex
        return a + times * v + times * (times - 1) // 2
    if op == "suspend":  # the i-th suspension joins v + 2i vertices to two apexes
        return a + 2 * times * v + 2 * times * (times - 1)
    for h in inputs[1:]:
        v, a = v * len(h.vertices), a * len(h.vertices) + v * len(h.arrows)
    return a


def _add_apexes(x: Digraph, stems: tuple, times: int) -> Digraph:
    """The `times`-fold cone (one stem) or suspension (two stems) of x, as
    `digraphs.cone` or `digraphs.suspension` would make it step by step, but
    built once: each step adds one apex per stem, which receives an arrow
    from every vertex present before the step."""
    vertices, arrows = list(x.vertices), list(x.arrows)
    present = set(vertices)
    labels = [_fresh_labels(present, stem) for stem in stems]
    for _ in range(times):
        apexes = [next(fresh) for fresh in labels]
        for apex in apexes:
            arrows.extend((v, apex) for v in vertices)
        vertices.extend(apexes)
    return build_digraph(vertices, arrows, x.base)


def _fresh_labels(present: set, stem: str):
    """The labels stem, stem1, stem2, ... missing from `present`, in order,
    each added to `present` as it is handed out."""
    for k in count():
        label = f"{stem}{k}" if k else stem
        if label not in present:
            present.add(label)
            yield label


def cmd_hurewicz(args) -> int:
    data = _load_json(args.gridmap)
    try:
        target = None
        if isinstance(data, dict) and isinstance(data.get("target"), str):
            target = _load_digraph(str(Path(args.gridmap).parent / data["target"]))
        f = grid_map_from_json(data, target)
    except (GridError, DigraphError, KeyError, TypeError) as exc:
        raise CliError(f"bad grid map: {exc}", EXIT_GRIDMAP)
    violation = grid_map_violation(f)
    if violation is not None:
        raise CliError(f"invalid grid map: {violation}", EXIT_GRIDMAP)
    if args.relative and f.mode != "triple":
        raise CliError("--relative requires a triple-mode grid map", EXIT_GRIDMAP)
    try:
        cubical = hurewicz_class(f)
        glmy = glmy_hurewicz(f)
    except (WrongDimensionError, NotACycleError) as exc:
        # a 0-dimensional map, or an absolute-mode map whose cells do not close up
        raise CliError(f"no Hurewicz class: {exc}", EXIT_GRIDMAP)
    if args.json:
        out = {
            "cubical": {"group": cubical.group.to_json(), "coords": list(cubical.coords)},
            "path": {"group": glmy.group.to_json(), "coords": list(glmy.coords)},
        }
        if args.show_chain:
            out["chain"] = hurewicz_chain(f).to_json()
        print(json.dumps(out))
    else:
        if args.show_chain:
            print("chain:", json.dumps(hurewicz_chain(f).to_json()))
        print(f"cubical class: {list(cubical.coords)} in {cubical.group}")
        print(f"path class:    {list(glmy.coords)} in {glmy.group}")
    return 0


def cmd_compare(args) -> int:
    _require_degree(args.dim)
    g = _load_digraph(args.input)
    lmap = comparison_L(g, args.dim)
    if args.json:
        print(
            json.dumps(
                {
                    "matrix": [list(r) for r in lmap.matrix.data],
                    "source": lmap.source.to_json(),
                    "target": lmap.target.to_json(),
                }
            )
        )
    else:
        print(f"cubical H_{args.dim} = {lmap.source}")
        print(f"path    H_{args.dim} = {lmap.target}")
        print("matrix (rows = path generators):")
        for row in lmap.matrix.data:
            print("  ", list(row))
    return 0


def cmd_verify(args) -> int:
    if args.what == "certificate":
        if len(args.inputs) != 3:
            raise CliError("verify certificate needs F.json G.json CERT.json", EXIT_PARSE)
        f_data, g_data, cert_data = (
            _load_json(args.inputs[0]),
            _load_json(args.inputs[1]),
            _load_json(args.inputs[2]),
        )
        try:
            f = grid_map_from_json(f_data)
            g = grid_map_from_json(g_data)
            cert = certificate_from_json(cert_data, f.target)
        except (GridError, DigraphError, KeyError, TypeError) as exc:
            raise CliError(f"bad input: {exc}", EXIT_GRIDMAP)
        ok = verify_homotopy_certificate(f, g, cert)
        print("PASS" if ok else "FAIL")
        return 0 if ok else EXIT_VERIFY_FAILED

    if args.what == "exactness":
        if len(args.inputs) != 1:
            raise CliError("verify exactness needs one PAIR.json input", EXIT_PARSE)
        data = _load_json(args.inputs[0])
        if not isinstance(data, dict) or "ambient" not in data or "sub" not in data:
            raise CliError("bad pair file: it needs 'ambient' and 'sub'", EXIT_PARSE)
        base_dir = Path(args.inputs[0]).parent
        ambient = _load_entry(data["ambient"], base_dir, "ambient")
        sub = _load_entry(data["sub"], base_dir, "subdigraph")
        if not is_subdigraph(sub, ambient):
            raise CliError("'sub' is not a subdigraph of 'ambient'", EXIT_SUBDIGRAPH)
        pair = THEORIES[args.theory].build_pair(ambient, sub, args.maxdim + 1)
        ok = verify_exactness(pair.pair.les_maps(args.maxdim))
        print("PASS" if ok else "FAIL")
        return 0 if ok else EXIT_VERIFY_FAILED

    if args.what == "paper-suite":
        from .acceptance import run_all

        results = run_all(seed=args.seed)
        width = max(len(r.name) for r in results)
        failures = 0
        for r in results:
            mark = "✓" if r.passed else "✗"
            print(f"{mark} {r.name:<{width}}  [{r.seconds:6.2f}s]  {r.detail}")
            if not r.passed:
                failures += 1
        print(f"{len(results) - failures}/{len(results)} criteria passed")
        return 0 if failures == 0 else EXIT_VERIFY_FAILED

    raise CliError(f"unknown verification {args.what!r}", EXIT_PARSE)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="digraph-homology",
        description="Path and cubical homology of finite digraphs over the integers.",
    )
    # each subcommand takes only the shared flags it reads
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true", help="machine-readable output")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homology", parents=[json_flag], help="compute a homology group")
    p.add_argument("input", help="digraph JSON file")
    p.add_argument("--theory", choices=THEORIES, default="path")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--relative", help="subdigraph JSON file for relative homology")
    p.add_argument("--reduced", action="store_true", help="augmented (reduced) homology")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("build", help="construct digraphs")
    p.add_argument("op", choices=["cone", "suspend", "boxprod"])
    p.add_argument("inputs", nargs="+", help="digraph JSON file(s)")
    p.add_argument("--times", type=int, default=1, help="iterate the construction")
    p.add_argument("--output", "-o", help="output file (default: stdout)")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("hurewicz", parents=[json_flag], help="homology classes of a grid map")
    p.add_argument("gridmap", help="grid-map JSON file")
    p.add_argument("--relative", action="store_true", help="require a triple-mode map")
    p.add_argument("--show-chain", action="store_true", help="print the cube decomposition")
    p.set_defaults(func=cmd_hurewicz)

    p = sub.add_parser("compare", parents=[json_flag], help="cubical-to-path comparison matrix")
    p.add_argument("input", help="digraph JSON file")
    p.add_argument("--dim", type=int, required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("verify", help="verification commands")
    p.add_argument("what", choices=["certificate", "exactness", "paper-suite"])
    p.add_argument("inputs", nargs="*", help="input files (see README)")
    p.add_argument(
        "--maxdim", type=int, default=3, help="top degree of the exactness sequence (default 3)"
    )
    p.add_argument("--theory", choices=THEORIES, default="path")
    p.add_argument("--seed", type=int, default=0, help="seed for the paper suite")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "maxdim" in args:
            _require_degree(args.maxdim, "--maxdim")
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except BoundExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND


if __name__ == "__main__":
    sys.exit(main())
