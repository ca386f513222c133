"""Command-line front end.

Subcommands read a JSON scene (stdin or --in), run one computation,
and write a result document (stdout or --out).  Exit codes: 0 success,
1 malformed input, 2 computation error (degenerate input or a resource
cap), 3 verification disagreement, which means a counterexample to the
implementation rather than to the mathematics.

Output is deterministic: the same scene, flags, and seed produce byte
identical documents apart from the version line.

A command reaches the lazily registered modules (see the package
docstring) only through module attributes, such as
`circumcenter.circumcenters(...)`, so a process executes only the
modules its command uses.  The --theorem choices come from `config`,
so that parsing the arguments runs no `equivalence`.  The modules are
registered, not imported inside the commands, so that every one is in
`sys.modules` once this module is imported, which the benchmark tracer
relies on.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional

from . import __version__, centers, circumcenter, config, construct, equivalence, render
from .errors import MinksimplexError, VerificationError
from .scalars import EXACT
from .scene import (
    Scene,
    SceneError,
    dumps_document,
    parse_scene,
    result_document,
    scalar_to_json,
    vec_to_json,
)

_VERSION_LINE = f"minksimplex {__version__}"

FAMILIES = config.FAMILIES  # --theorem choices in table order; a tuple, so tests can sample it


def _read_input(path: Optional[str]) -> str:
    try:
        if path in (None, "-"):
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise SceneError(f"scene is not UTF-8 text ({exc.reason})", f"byte {exc.start}")


def _write_output(path: Optional[str], text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _check_mode_flag(scene: Scene, mode: Optional[str]) -> None:
    if mode == "exact" and scene.mode != EXACT:
        raise MinksimplexError(
            "scene uses a smooth ball; exact evaluation is not available"
        )
    if mode == "float" and scene.mode == EXACT:
        raise MinksimplexError(
            "polytopal scenes evaluate exactly; float mode applies to pnorm scenes"
        )


def _require_simplex(scene: Scene):
    if scene.simplex is None:
        raise MinksimplexError("this command needs a 'simplex' in the scene")
    return scene.simplex


def _insphere_json(ins) -> dict:
    out = {
        "center": vec_to_json(ins.center),
        "radius": scalar_to_json(ins.radius),
    }
    if ins.flipped_facet is not None:
        out["flipped_facet"] = ins.flipped_facet
    return out


def _pieces_json(cset) -> list:
    out = []
    for p in cset.pieces:
        row = {
            "center": vec_to_json(p.center),
            "radius": scalar_to_json(p.radius),
            "affine_dim": p.affine_dim,
        }
        if p.assignment is not None:
            row["facet_assignment"] = list(p.assignment)
        out.append(row)
    return out


def cmd_gauge(scene: Scene, args) -> tuple:
    payload = {}
    if scene.points:
        payload["points"] = {
            name: scalar_to_json(scene.ball.gauge(p))
            for name, p in sorted(scene.points.items())
        }
    if scene.simplex is not None:
        payload["simplex_vertices"] = [
            scalar_to_json(scene.ball.gauge(v)) for v in scene.simplex.vertices
        ]
    if not payload:
        raise MinksimplexError("nothing to measure: add 'points' or a 'simplex'")
    return {"gauges": payload}, 0


def cmd_circumcenters(scene: Scene, args) -> tuple:
    simplex = _require_simplex(scene)
    cset = circumcenter.circumcenters(simplex, scene.ball)
    payload = {
        "classification": cset.classification,
        "pieces": _pieces_json(cset),
    }
    if cset.mode != EXACT:
        payload["start_failures"] = cset.start_failures
    return payload, 0


def cmd_centers(scene: Scene, args) -> tuple:
    simplex = _require_simplex(scene)
    ball = scene.ball
    inc = centers.incenter(simplex, ball)
    exs = centers.exspheres(simplex, ball)
    payload = {
        "incenter": _insphere_json(inc),
        "exspheres": [
            _insphere_json(exs[i]) if exs[i] is not None else None
            for i in range(simplex.dim + 1)
        ],
    }
    cset = circumcenter.circumcenters(simplex, ball, first=True)
    payload["circumcenter_classification"] = cset.classification
    if cset.pieces:
        piece = cset.pieces[0]
        line = centers.euler_line(simplex, ball, piece.center, piece.radius)
        payload["euler"] = {
            "circumcenter": vec_to_json(line.circumcenter),
            "radius": scalar_to_json(line.radius),
            "centroid": vec_to_json(line.centroid),
            "concurrence": vec_to_json(line.concurrence),
            "feuerbach_center": vec_to_json(line.feuerbach_center),
            "feuerbach_radius": scalar_to_json(line.feuerbach_radius),
            "monge": vec_to_json(line.monge),
            "collapsed": line.collapsed,
            "degenerate_line_indices": list(line.degenerate_line_indices),
        }
    else:
        payload["euler"] = None
    return payload, 0


def cmd_construct(scene: Scene, args) -> tuple:
    anchor = scene.points.get("anchor")
    seed = args.seed if args.strategy == "seeded" else None
    built = construct.quasiregular_simplex(scene.ball, anchor=anchor, seed=seed)
    payload = {
        "strategy": args.strategy,
        "seed": seed,
        "simplex": [vec_to_json(v) for v in built.simplex.vertices],
        "ag_quasiregular": bool(circumcenter.is_ag_quasiregular(built.simplex, scene.ball)),
        "picks": [
            {
                "level": p.level,
                "vertex": vec_to_json(p.vertex),
                "direction": vec_to_json(p.direction),
                "target_before": vec_to_json(p.target_before),
                "target_after": vec_to_json(p.target_after),
            }
            for p in built.picks
        ],
        "closing_chord": [vec_to_json(v) for v in built.closing_chord],
    }
    return payload, 0


def cmd_verify(scene: Scene, args) -> tuple:
    family = args.theorem
    if scene.simplex is not None:
        reports = equivalence.verify_family(family, scene.simplex, scene.ball, args.seed)
        disagreements = [r for r in reports if not r.agreement]
    else:
        outcome = equivalence.run_campaign(family, scene.ball, trials=args.trials, seed=args.seed)
        reports = list(outcome.reports)
        disagreements = list(outcome.disagreements)
    payload = {
        "family": family,
        "trials": len(reports),
        "all_agree": not disagreements,
        "reports": [r.to_dict() for r in reports],
    }
    if disagreements:
        payload["disagreements"] = [r.fingerprint for r in disagreements]
        return payload, 3
    return payload, 0


def cmd_render(scene: Scene, args) -> tuple:
    simplex = scene.simplex
    translates = []
    markers = dict(scene.points)
    if simplex is not None:
        cset = circumcenter.circumcenters(simplex, scene.ball)
        seen = {}
        for p in cset.pieces:
            seen.setdefault(p.center, p.radius)
        if len(seen) < 2 and cset.classification == "multiple":
            for c in cset.distinct_centers(2):
                if c not in seen:
                    seen[c] = scene.ball.gauge(simplex.vertices[0] - c)
        translates = list(seen.items())[:4]
        if translates:
            center, radius = translates[0]
            line = centers.euler_line(simplex, scene.ball, center, radius)
            markers.setdefault("G", line.centroid)
            markers.setdefault("M", line.circumcenter)
            markers.setdefault("P", line.concurrence)
            markers.setdefault("F", line.feuerbach_center)
            markers.setdefault("N", line.monge)
    if args.project:
        try:
            axes = tuple(int(t) for t in args.project.split(","))
        except ValueError:
            raise MinksimplexError(f"bad --project value {args.project!r}")
    else:
        axes = (0, 1) if scene.dimension == 2 else (1, 2)
    svg = render.render_scene(
        scene.ball,
        simplex,
        sphere_translates=translates,
        point_labels=markers,
        axes=axes,
    )
    _write_output(args.out, svg)
    return None, 0


# each subcommand's handler and its help line
_COMMANDS = {
    "gauge": (cmd_gauge, "gauge of each named point (and simplex vertex) in the scene norm"),
    "circumcenters": (cmd_circumcenters, "enumerate or search the circumcenter set of the scene simplex"),
    "centers": (cmd_centers, "incenter, exspheres, and Euler-line points of the scene simplex"),
    "construct": (cmd_construct, "build a simplex inscribed in the unit sphere with centroid at the center"),
    "verify": (cmd_verify, "run an equivalence-family verification campaign on the scene ball"),
    "render": (cmd_render, "draw the scene as a standalone SVG"),
}


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0  # reported like any other count below 1
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


# every subcommand's flags, each with add_argument's keyword arguments, in
# the order the parser declares them; _build_parser and _read_args both
# read this table, and it is the one place a flag is declared
_IO_FLAGS = {
    "--in": {"dest": "inp", "metavar": "PATH", "help": "scene file (default stdin)"},
    "--out": {"metavar": "PATH", "help": "result file (default stdout)"},
    "--mode": {"choices": ("exact", "float"), "help": "require an arithmetic mode"},
}
_FLAGS = {
    "gauge": _IO_FLAGS,
    "circumcenters": _IO_FLAGS,
    "centers": _IO_FLAGS,
    "construct": {
        **_IO_FLAGS,
        "--strategy": {"choices": ("deterministic", "seeded"), "default": "deterministic"},
        "--seed": {"type": int, "default": 0, "help": "chord-direction seed (seeded strategy)"},
    },
    "verify": {
        **_IO_FLAGS,
        "--theorem": {"required": True, "choices": FAMILIES, "help": "equivalence family to verify"},
        "--trials": {"type": _positive_int, "default": 200},
        "--seed": {"type": int, "default": 0},
    },
    "render": {
        **_IO_FLAGS,
        # --svg and --out both name the one SVG file
        "--svg": {"dest": "out", "metavar": "PATH", "help": "SVG output (default stdout)"},
        "--project": {"metavar": "I,J",
                      "help": "coordinate axes to project onto (default 0,1 planar, 1,2 above)"},
    },
}


@functools.cache  # built once per process, on the first command line _read_args declines
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minksimplex",
        description="Simplex geometry in normed spaces: gauges, circumcenter "
        "sets, in/exspheres, Euler-line points, inscribed constructions, and "
        "equivalence verification campaigns.",
    )
    parser.add_argument("--version", action="version", version=_VERSION_LINE)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, desc) in _COMMANDS.items():
        p = sub.add_parser(name, help=desc, description=desc)
        for flag, kwargs in _FLAGS[name].items():
            p.add_argument(flag, **kwargs)
    return parser


def _read_args(argv) -> Optional[argparse.Namespace]:
    """The namespace argparse gives a well-formed command line, or None.

    Well formed: a subcommand, then pairs of one of its flags, spelled
    whole, and a separate value that does not start with '-' and that
    the flag's type and choices accept, with every required flag given.
    Any other command line (help, --version, an abbreviation,
    --flag=value, a bad or missing value) is left to argparse, the one
    printer of help, usage and errors.
    """
    flags = _FLAGS.get(argv[0]) if argv else None
    if flags is None or len(argv) % 2 == 0:
        return None
    values = {"command": argv[0]}  # argparse's attribute order
    for flag, kwargs in flags.items():
        values.setdefault(kwargs.get("dest", flag[2:]), kwargs.get("default"))
    missing = {flag for flag, kwargs in flags.items() if kwargs.get("required")}
    for flag, text in zip(argv[1::2], argv[2::2]):
        kwargs = flags.get(flag)
        if kwargs is None or not isinstance(text, str) or text.startswith("-"):
            return None
        convert = kwargs.get("type")
        try:
            value = text if convert is None else convert(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        choices = kwargs.get("choices")
        if choices is not None and value not in choices:
            return None
        values[kwargs.get("dest", flag[2:])] = value  # a repeated flag keeps its last value
        missing.discard(flag)
    return None if missing else argparse.Namespace(**values)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_args(argv) or _build_parser().parse_args(argv)
    try:
        scene = parse_scene(_read_input(args.inp))
        _check_mode_flag(scene, args.mode)
        payload, code = _COMMANDS[args.command][0](scene, args)
        if payload is not None:
            doc = result_document(args.command, scene, payload, _VERSION_LINE)
            _write_output(args.out, dumps_document(doc))
    except (SceneError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except VerificationError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3
    except MinksimplexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if code == 3:
        print("verification disagreement; offending fingerprints in output",
              file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
