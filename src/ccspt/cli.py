"""Command-line front door.

Exit codes: 0 for equivalent/true, 1 for inequivalent/false, 2 for usage,
semantic and internal errors.  JSON goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from . import axioms as _axioms
from . import bisim as _bisim
from .encode import encode as _encode_lts
from . import modal as _modal
from .errors import CcsptError, ParseError
from .parser import is_identifier, parse_formula, parse_source, render
from .semantics import (ExplorationLimits, build_lts, from_aut, to_aut,
                        to_dot)
from .terms import alphabet

RELATIONS = ("strong", "brb", "brb-rooted", "brbX", "cbrb", "gbrb",
             "gbrb-rooted", "tob", "tob-rooted", "tb", "tb-rooted")
ENV_RELATIONS = ("brbX", "tob", "tob-rooted")
# each relation's base family; "-rooted" asks for the rooted layer
_CHECKERS = {"strong": _bisim.strong_bisim, "brb": _bisim.brb_check,
             "brbX": _bisim.brb_X_check, "cbrb": _bisim.cbrb_check,
             "gbrb": _bisim.gbrb_check, "tob": _bisim.tob_check, "tb": _bisim.tb_check}


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_system(path: str, sigma, max_states):
    text = _read(path)
    if text.lstrip().startswith("des"):
        lts = from_aut(text)
        # a second Lts only when sigma declares actions the file does not
        return lts if lts.sigma >= sigma else lts.with_sigma(sigma)
    src = parse_source(text)
    sig = frozenset(sigma) | src.alphabet | alphabet(src.root)
    return build_lts(src.root, ExplorationLimits(max_states=max_states), sigma=sig)


def _load_pair(args, sigma):
    """The two systems of a comparison and their shared alphabet."""
    l1 = _load_system(args.left, sigma, args.max_states)
    l2 = _load_system(args.right, sigma, args.max_states)
    return l1, l2, l1.sigma | l2.sigma | sigma


def _split_sigma(text, option="--sigma"):
    """The comma-separated action names of an option; a name that is not an
    identifier, as an ``alphabet`` line would refuse it, is a ``ParseError``."""
    names = frozenset(n.strip() for n in text.split(",") if n.strip()) if text else frozenset()
    for name in sorted(names):
        if not is_identifier(name):
            raise ParseError(f"{option} names {name!r}", expected="identifiers, comma separated")
    return names


def _seed(args, parser) -> int:
    if args.seed is not None:
        return args.seed
    raw = os.environ.get("PABR_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        parser.error(f"PABR_SEED must be an integer, not {raw!r}")


def _options(max_states, sigma) -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--max-states", type=int, default=max_states)
    common.add_argument("--sigma", default=sigma,
                        help="extra visible actions, comma separated")
    return common


def main(argv=None) -> int:
    # A subcommand's copies of the options default to SUPPRESS, so a value
    # given before the subcommand survives.
    common = _options(argparse.SUPPRESS, argparse.SUPPRESS)
    parser = argparse.ArgumentParser(
        prog="ccspt", parents=[_options(50_000, "")],
        description="process algebra with time-outs: semantics, equivalences, "
                    "modal logic, axioms")
    sub = parser.add_subparsers(dest="command", required=True)

    p_parse = sub.add_parser("parse", help="validate and pretty-print a term", parents=[common])
    p_parse.add_argument("file")
    p_parse.add_argument("--open", action="store_true",
                         help="allow free variables in the root term")

    p_lts = sub.add_parser("lts", help="build and export a transition system", parents=[common])
    p_lts.add_argument("file")
    p_lts.add_argument("--fmt", choices=("human", "aut", "dot", "json"),
                       default="human")

    p_enc = sub.add_parser("encode", help="environment encoding of a system", parents=[common])
    p_enc.add_argument("file")
    p_enc.add_argument("--rooted", action="store_true")
    p_enc.add_argument("--fmt", choices=("human", "aut", "dot"), default="aut")

    p_check = sub.add_parser("check", help="decide an equivalence between two systems", parents=[common])
    p_check.add_argument("left")
    p_check.add_argument("right")
    p_check.add_argument("--rel", choices=RELATIONS, default="brb")
    p_check.add_argument("--env", default=None,
                         help=f"environment set for {', '.join(ENV_RELATIONS)}, "
                              "comma separated")
    p_check.add_argument("--fmt", choices=("human", "json"), default="human")

    p_modal = sub.add_parser("modal", help="evaluate or synthesise formulas", parents=[common])
    modal_sub = p_modal.add_subparsers(dest="modal_command", required=True)
    p_eval = modal_sub.add_parser("eval")
    p_eval.add_argument("file")
    p_eval.add_argument("--formula", required=True)
    p_eval.add_argument("--env", default=None,
                        help="allowed set; omit for a triggered environment")
    p_dist = modal_sub.add_parser("distinguish")
    p_dist.add_argument("left")
    p_dist.add_argument("right")
    p_dist.add_argument("--fragment", choices=("Lb", "Lbr"), default="Lb")
    p_dist.add_argument("--env", default=None)

    p_hnf = sub.add_parser("hnf", help="head-normal form of a term", parents=[common])
    p_hnf.add_argument("file")

    p_sound = sub.add_parser("axioms", help="axiom tooling", parents=[common])
    ax_sub = p_sound.add_subparsers(dest="axioms_command", required=True)
    p_sc = ax_sub.add_parser("soundcheck")
    p_sc.add_argument("--which", choices=("Ax", "Axr"), default="Axr")
    p_sc.add_argument("--axiom", default=None,
                      choices=[s.name for s in _axioms.all_schemas()])
    p_sc.add_argument("--samples", type=int, default=50)
    p_sc.add_argument("--seed", type=int, default=None)

    args = parser.parse_args(argv)
    if args.max_states <= 0:
        parser.error(f"--max-states must be positive, not {args.max_states}")
    if args.command == "check" and args.env is not None and args.rel not in ENV_RELATIONS:
        p_check.error(f"--env applies to {', '.join(ENV_RELATIONS)}, not {args.rel}")
    if args.command == "axioms":
        if args.samples <= 0:
            parser.error(f"--samples must be positive, not {args.samples}")
        args.seed = _seed(args, parser)
    try:
        return _dispatch(args, _split_sigma(args.sigma))
    except CcsptError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect must not read as exit 1, "inequivalent"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 2


def _dispatch(args, sigma) -> int:
    if args.command == "parse":
        src = parse_source(_read(args.file), open_terms=args.open)
        print(render(src.root))
        return 0

    if args.command == "lts":
        lts = _load_system(args.file, sigma, args.max_states)
        if args.fmt == "aut":
            sys.stdout.write(to_aut(lts))
        elif args.fmt == "dot":
            sys.stdout.write(to_dot(lts))
        elif args.fmt == "json":
            print(json.dumps({
                "states": lts.num_states,
                "transitions": lts.num_transitions,
                "initial": lts.initial,
                "sigma": sorted(lts.sigma),
            }, indent=2))
        else:
            print(f"{lts.num_states} states, {lts.num_transitions} transitions, "
                  f"alphabet {{{','.join(sorted(lts.sigma))}}}")
        return 0

    if args.command == "encode":
        lts = _load_system(args.file, sigma, args.max_states)
        enc = _encode_lts(lts, rooted=args.rooted, max_states=args.max_states)
        if args.fmt == "aut":
            sys.stdout.write(to_aut(enc))
        elif args.fmt == "dot":
            sys.stdout.write(to_dot(enc))
        else:
            print(f"{enc.num_states} states, {enc.num_transitions} transitions")
        return 0

    if args.command == "check":
        return _run_check(args, sigma)

    if args.command == "modal":
        return _run_modal(args, sigma)

    if args.command == "hnf":
        src = parse_source(_read(args.file))
        print(render(_axioms.head_normal_form(src.root)))
        return 0

    if args.command == "axioms":
        report = _axioms.soundness_suite(args.which, samples=args.samples,
                                         seed=args.seed, axiom=args.axiom)
        print(json.dumps(report, indent=2))
        bad = [ax for ax in report["axioms"] if ax["failures"]]
        return 1 if bad else 0

    raise AssertionError(args.command)


def _run_check(args, sigma) -> int:
    l1, l2, shared = _load_pair(args, sigma)
    rel = args.rel
    family, rooted = rel.removesuffix("-rooted"), rel.endswith("-rooted")
    options = {"rooted": True} if rooted else {}
    if family == "brbX" or args.env is not None:
        options["env"] = _split_sigma(args.env, "--env")
    if family == "tb":  # over the encodings' own labels
        l1, l2 = (_encode_lts(lts, rooted=rooted, sigma=shared, max_states=args.max_states)
                  for lts in (l1, l2))
    else:
        options["sigma"] = shared
    verdict = _CHECKERS[family](l1, l1.initial, l2, l2.initial, **options)
    if args.fmt == "json":
        print(verdict.to_json())
    else:
        word = "equivalent" if verdict.equivalent else "inequivalent"
        print(f"{rel}: {word}")
        for record in verdict.refutation:
            print(f"  {record['lhs']}  vs  {record['rhs']}: "
                  f"clause {record['clause']}, {record['detail']}")
    return 0 if verdict.equivalent else 1


def _run_modal(args, sigma) -> int:
    if args.modal_command == "eval":
        lts = _load_system(args.file, sigma, args.max_states)
        formula = parse_formula(args.formula)
        if args.env is None:
            holds = _modal.sat(lts, lts.initial, formula)
            env = None
        else:
            env = sorted(_split_sigma(args.env, "--env"))
            holds = _modal.sat_env(lts, lts.initial, frozenset(env), formula)
        print(json.dumps({"holds": holds, "env": env}))
        return 0 if holds else 1
    # distinguish
    l1, l2, shared = _load_pair(args, sigma)
    env = None if args.env is None else _split_sigma(args.env, "--env")
    formula = _modal.distinguish(l1, l1.initial, l2, l2.initial,
                                 fragment=args.fragment, env=env, sigma=shared)
    print(json.dumps({"formula": None if formula is None else render(formula),
                      "env": None if env is None else sorted(env)}))
    return 0 if formula is None else 1


if __name__ == "__main__":
    sys.exit(main())
