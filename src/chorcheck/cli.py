"""Command-line surface.

Exit codes: 0 = property holds / success, 1 = property fails (witnesses
printed), 2 = usage, parse or output error, 3 = `unknown` verdict (also
when a bounded check would exceed its size limit).

The argument parser is built once per process, on the first call of `main`.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .complement import (NoComplementMethodError, complement_auto,
                         complement_cartesian, complement_dual,
                         complement_renunciation, verify_complement)
from .formats import (ParseError, parse_cfsm, parse_gt, parse_msc, render_cfsm,
                      render_dot, render_gt)
from .gtype import (ClassificationError, DeclarationMismatchError, GlobalType,
                    classify, member_existential, member_universal, project)
from .oracle import count_profile_check, enumerate_canonical
from .realisability import (Status, check_p2p_realisable,
                            check_sync_realisable)
from .semantics import p2p_explore, p2p_mscs
from .trace import DeclarationError, Msc, SizeLimitError

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _load_gt(path: str) -> GlobalType:
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None
    try:
        return parse_gt(text)
    except ParseError as exc:
        raise CliError(f"{path}: {exc}") from None


def _word_json(word) -> list[str]:
    return [str(a) for a in word]


def _msc_json(m: Msc) -> list[str]:
    return _word_json(m.word)


def _emit(args, payload: dict, text_lines: list[str]):
    if args.json:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands


def cmd_classify(args) -> int:
    g = _load_gt(args.gt)
    c = classify(g)
    payload = {
        "command": "classify",
        "name": g.name,
        "deterministic": c.deterministic,
        "commutation_closed": c.commutation_closed,
        "sender_driven": c.sender_driven,
        "commutation_deterministic": c.commutation_deterministic,
        "participant_count": c.participant_count,
    }
    _emit(args, payload, [
        f"name: {g.name}",
        f"deterministic: {c.deterministic}",
        f"commutation_closed: {c.commutation_closed}",
        f"sender_driven: {c.sender_driven}",
        f"commutation_deterministic: {c.commutation_deterministic}",
        f"participant_count: {c.participant_count}",
    ])
    return EXIT_HOLDS


def cmd_complement(args) -> int:
    g = _load_gt(args.gt)
    try:
        if args.method == "dual":
            result_gt, method, guaranteed, note = complement_dual(g), "dual", True, ""
        elif args.method == "renunciation":
            result_gt, method, guaranteed, note = (complement_renunciation(g),
                                                   "renunciation", True, "")
        elif args.method == "cartesian":
            r = complement_cartesian(g)
            result_gt, method, guaranteed, note = r.gtype, r.method, r.guaranteed, r.note
        else:
            r = complement_auto(g)
            result_gt, method, guaranteed, note = r.gtype, r.method, r.guaranteed, r.note
    except (ClassificationError, NoComplementMethodError) as exc:
        print(f"complement failed: {exc}", file=sys.stderr)
        return EXIT_FAILS
    text = render_gt(result_gt)
    if args.output:
        try:
            Path(args.output).write_text(text)
        except OSError as exc:
            raise CliError(f"cannot write {args.output}: {exc}") from None
    payload = {
        "command": "complement",
        "method": method,
        "guaranteed": guaranteed,
        "note": note,
        "states": result_gt.automaton.n_states,
        "gt": text,
    }
    if args.json:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    elif not args.output:
        sys.stdout.write(text)
    return EXIT_HOLDS


def cmd_verify_complement(args) -> int:
    g = _load_gt(args.gt)
    gbar = _load_gt(args.gbar)
    try:
        report = verify_complement(g, gbar, args.max_events)
    except (DeclarationError, ValueError) as exc:
        raise CliError(str(exc)) from None
    payload = {
        "command": "verify-complement",
        "max_events": report.max_events,
        "universe_size": report.universe_size,
        "passed": report.passed,
        "violations": [{"msc": _msc_json(m), "kind": kind}
                       for m, kind in report.violations],
        "note": report.note,
    }
    lines = [f"universe: {report.universe_size} canonical MSCs up to "
             f"{report.max_events} events",
             f"passed: {report.passed}  ({report.note})"]
    lines += [f"violation ({kind}): {m}" for m, kind in report.violations]
    _emit(args, payload, lines)
    return EXIT_HOLDS if report.passed else EXIT_FAILS


def cmd_member(args) -> int:
    g = _load_gt(args.gt)
    m = parse_msc(args.msc, g.declaration)
    member = member_universal(g, m) if args.universal else member_existential(g, m)
    mode = "universal" if args.universal else "existential"
    payload = {"command": "member", "msc": _msc_json(m), "mode": mode,
               "member": member}
    _emit(args, payload, [f"{mode} member: {member}"])
    return EXIT_HOLDS if member else EXIT_FAILS


def cmd_project(args) -> int:
    g = _load_gt(args.gt)
    system = project(g)
    texts = {cfsm.process: render_cfsm(cfsm, system) for cfsm in system.cfsms}
    if args.output:
        outdir = Path(args.output)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
            for process, text in texts.items():
                (outdir / f"{process}.cfsm").write_text(text)
        except OSError as exc:
            raise CliError(f"cannot write {outdir}: {exc}") from None
    lines = ([f"wrote {len(texts)} CFSM files to {outdir}"] if args.output
             else list(texts.values()))
    _emit(args, {"command": "project", "cfsms": texts}, lines)
    return EXIT_HOLDS


def cmd_realisable(args) -> int:
    g = _load_gt(args.gt)
    gbar = _load_gt(args.complement)
    if args.model == "synch":
        v = check_sync_realisable(g, gbar)
        payload = {
            "command": "realisable",
            "model": "synch",
            "verdict": "holds" if v.realisable else "fails",
            "cc_holds": v.cc_holds,
            "cc_witness": _word_json(v.cc_witness) if v.cc_witness else None,
            "deadlock_free": v.deadlock_free,
            "deadlock_witness": v.deadlock_witness,
        }
        lines = [f"synchronous realisable: {v.realisable}",
                 f"  cc_holds: {v.cc_holds}"]
        if v.cc_witness:
            lines.append(f"  cc_witness: {';'.join(_word_json(v.cc_witness))}")
        lines.append(f"  deadlock_free: {v.deadlock_free}")
        if v.deadlock_witness:
            lines.append(f"  deadlock_witness: {v.deadlock_witness}")
        _emit(args, payload, lines)
        return EXIT_HOLDS if v.realisable else EXIT_FAILS

    verdict = check_p2p_realisable(g, gbar, args.bound, args.max_events)
    conds = {
        "rsc": verdict.cond1_rsc,
        "orphan_free": verdict.cond2_orphan_free,
        "accept_completion": verdict.cond3_accept_completion,
        "synch_realisable": verdict.cond4_synch,
    }
    payload = {
        "command": "realisable",
        "model": "p2p",
        "bound": args.bound,
        "verdict": verdict.overall.value,
        "conditions": {
            name: {"status": c.status.value,
                   "witness": str(c.witness) if c.witness is not None else None}
            for name, c in conds.items()
        },
        "note": ("semi-decision: conditions 1-3 checked up to the channel "
                 "bound and event budget only"),
    }
    lines = [f"p2p realisable (bound {args.bound}): {verdict.overall.value}"]
    if verdict.overall is Status.UNKNOWN:
        lines.append("  (semi-decision: the bound was hit; this is NOT a "
                     "p2p-realisability proof)")
    for name, c in conds.items():
        suffix = f"  witness: {c.witness}" if c.witness is not None else ""
        lines.append(f"  {name}: {c.status.value}{suffix}")
    _emit(args, payload, lines)
    if verdict.overall is Status.HOLDS:
        return EXIT_HOLDS
    if verdict.overall is Status.FAILS:
        return EXIT_FAILS
    return EXIT_UNKNOWN


def cmd_simulate(args) -> int:
    g = _load_gt(args.gt)
    system = project(g)
    report = p2p_explore(system, args.bound)
    _, mscs_bound_hit, rsc_violations = p2p_mscs(system, args.bound, args.max_events)

    def cfg_json(cfg):
        return {
            "locals": {p: system.cfsms[i].automaton.state_name(cfg.locals[i])
                       for i, p in enumerate(system.declaration.processes)},
            "channels": {f"{p}->{q}": list(ch)
                         for (p, q), ch in zip(report.channel_keys, cfg.channels)
                         if ch},
        }

    payload = {
        "command": "simulate",
        "model": "p2p",
        "bound": args.bound,
        "bound_hit": report.bound_hit or mscs_bound_hit,
        "configurations": len(report.configurations),
        "deadlocks": [{"configuration": cfg_json(cfg),
                       "path": [str(a) for a in path]}
                      for cfg, path in report.deadlocks],
        "orphans": [{"configuration": cfg_json(cfg),
                     "path": [str(a) for a in path]}
                    for cfg, path in report.orphans],
        "rsc_violations": [str(m) for m in rsc_violations],
    }
    clean = not (report.deadlocks or report.orphans or rsc_violations)
    lines = [f"configurations: {len(report.configurations)} (bound {args.bound})",
             f"deadlocks: {len(report.deadlocks)}",
             f"orphan configurations: {len(report.orphans)}",
             f"non-RSC MSCs: {len(rsc_violations)}"]
    for cfg, path in report.deadlocks:
        lines.append(f"  deadlock after: {';'.join(str(a) for a in path)}")
    if payload["bound_hit"]:
        lines.append("bound hit: results cover the bounded fragment only")
    _emit(args, payload, lines)
    if not clean:
        return EXIT_FAILS
    return EXIT_UNKNOWN if payload["bound_hit"] else EXIT_HOLDS


def cmd_dot(args) -> int:
    try:
        text = sys.stdin.read() if args.file == "-" else Path(args.file).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {args.file}: {exc}") from None
    try:
        obj = parse_cfsm(text) if text.lstrip().startswith("cfsm") else parse_gt(text)
    except ParseError as exc:
        raise CliError(f"{args.file}: {exc}") from None
    text = render_dot(obj)
    if args.json:
        _emit(args, {"command": "dot", "dot": text}, [])
    else:
        sys.stdout.write(text)
    return EXIT_HOLDS


def cmd_oracle_enumerate(args) -> int:
    g = _load_gt(args.gt)
    universe = enumerate_canonical(g.declaration, args.max_events)
    ordered = sorted(universe, key=lambda m: (len(m), m.word))
    payload = {"command": "oracle-enumerate", "max_events": args.max_events,
               "count": len(universe), "mscs": [_msc_json(m) for m in ordered]}
    lines = [f"{len(universe)} canonical MSCs up to {args.max_events} events"]
    lines += [f"  {m}" if len(m) else "  (empty)" for m in ordered]
    _emit(args, payload, lines)
    return EXIT_HOLDS


_PREDICATES = {
    "k1>k2": lambda k1, k2, k3: k1 > k2,
    "k2>k3": lambda k1, k2, k3: k2 > k3,
    "k1>k2_or_k2>k3": lambda k1, k2, k3: k1 > k2 or k2 > k3,
    "true": lambda k1, k2, k3: True,
}


def cmd_oracle_count_profile(args) -> int:
    g = _load_gt(args.gt)
    try:
        report = count_profile_check(g.automaton, g.declaration,
                                     _PREDICATES[args.predicate], args.max_len)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    payload = {
        "command": "oracle-count-profile",
        "predicate": args.predicate,
        "max_len": args.max_len,
        "checked_words": report.checked_words,
        "profile_words": report.profile_words,
        "passed": report.passed,
        "violations": [{"word": _word_json(w), "counts": list(counts)}
                       for w, counts in report.violations],
    }
    lines = [f"checked {report.checked_words} accepted words, "
             f"{report.profile_words} block-shaped",
             f"passed: {report.passed}"]
    lines += [f"violation: {';'.join(_word_json(w))} counts={counts}"
              for w, counts in report.violations]
    _emit(args, payload, lines)
    return EXIT_HOLDS if report.passed else EXIT_FAILS


# ---------------------------------------------------------------------------
# argument parsing


def _int_at_least(low: int, kind: str):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}")
        return value
    return parse


_positive_int = _int_at_least(1, "positive")
_non_negative_int = _int_at_least(0, "non-negative")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chorcheck",
        description="Classify, complement, and check realisability of global "
                    "types given as finite automata over communication arrows.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="emit JSON")
        return p

    p = add("classify", cmd_classify, help="classification predicates")
    p.add_argument("gt")

    p = add("complement", cmd_complement, help="complement a global type")
    p.add_argument("gt")
    p.add_argument("--method", choices=("dual", "cartesian", "renunciation", "auto"),
                   default="auto")
    p.add_argument("-o", "--output")

    p = add("verify-complement", cmd_verify_complement,
            help="bounded complement-law check")
    p.add_argument("gt")
    p.add_argument("gbar", help="complement candidate (use - for stdin)")
    p.add_argument("--max-events", type=_positive_int, default=6)

    p = add("member", cmd_member, help="MSC-language membership")
    p.add_argument("gt")
    p.add_argument("--msc", required=True, help="semicolon-separated arrows")
    p.add_argument("--universal", action="store_true")

    p = add("project", cmd_project, help="project onto CFSMs")
    p.add_argument("gt")
    p.add_argument("-o", "--output", help="directory for per-process .cfsm files")

    p = add("realisable", cmd_realisable, help="deadlock-free realisability")
    p.add_argument("gt")
    p.add_argument("--model", choices=("synch", "p2p"), required=True)
    p.add_argument("--complement", required=True, help="verified complement .gt")
    p.add_argument("--bound", type=_positive_int, default=2)
    p.add_argument("--max-events", type=_positive_int, default=8)

    p = add("simulate", cmd_simulate, help="bounded p2p reachability report")
    p.add_argument("gt")
    p.add_argument("--bound", type=_positive_int, default=2)
    p.add_argument("--max-events", type=_positive_int, default=8)

    p = add("dot", cmd_dot, help="DOT rendering on stdout")
    p.add_argument("file", help=".gt or .cfsm file (use - for stdin)")

    ora = sub.add_parser("oracle", help="brute-force oracle entry points")
    osub = ora.add_subparsers(dest="oracle_command", required=True)

    p = osub.add_parser("enumerate", help="enumerate the canonical-MSC universe")
    p.set_defaults(func=cmd_oracle_enumerate)
    p.add_argument("--json", action="store_true")
    p.add_argument("gt", help="any .gt file; only its declaration is used")
    p.add_argument("--max-events", type=_positive_int, default=4)

    p = osub.add_parser("count-profile", help="count-profile predicate check")
    p.set_defaults(func=cmd_oracle_count_profile)
    p.add_argument("--json", action="store_true")
    p.add_argument("gt")
    p.add_argument("--predicate", choices=sorted(_PREDICATES), default="k1>k2")
    p.add_argument("--max-len", type=_non_negative_int, default=8)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_HOLDS
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ParseError, DeclarationError, DeclarationMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN


if __name__ == "__main__":
    sys.exit(main())
