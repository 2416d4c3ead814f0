"""Command-line surface.

Each command returns its payload, the dict that `--json` prints, and its
exit code; it prints nothing itself.  In text mode `main` renders that same
payload: a payload that carries a document (`gt`, `dot` or the `cfsms`
texts) prints the document, or nothing when `-o` wrote it to a file; any
other payload prints one `key: value` line per field, with each list item
and each nested entry on an indented line of its own.

Exit codes: 0 = property holds / success, 1 = property fails (witnesses
printed), 2 = usage, parse or output error, 3 = `unknown` verdict (also
when a bounded check would exceed its size limit).  Errors become exit
codes in one table, `_ERROR_CODES`, and print `error: …` on stderr.

The argument parser is built once per process, on the first call of `main`.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .complement import (ComplementResult, NoComplementMethodError,
                         complement_auto, complement_cartesian, complement_dual,
                         complement_renunciation, verify_complement)
from .formats import (ParseError, parse_automaton, parse_gt, parse_msc,
                      render_cfsm, render_dot, render_gt)
from .gtype import (ClassificationError, classify, member_existential,
                    member_universal, project)
from .realisability import (Status, check_p2p_realisable,
                            check_sync_realisable)
from .semantics import p2p_explore, p2p_mscs
from .trace import SizeLimitError

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3

_STATUS_CODES = {Status.HOLDS: EXIT_HOLDS, Status.FAILS: EXIT_FAILS,
                 Status.UNKNOWN: EXIT_UNKNOWN}


class CliError(Exception):
    """A file that cannot be read, parsed or written."""


# error class -> exit code; the first class that matches an error gives its code
_ERROR_CODES = {
    ClassificationError: EXIT_FAILS, NoComplementMethodError: EXIT_FAILS,
    SizeLimitError: EXIT_UNKNOWN,
    CliError: EXIT_USAGE, ValueError: EXIT_USAGE,
}


def _read(path: str) -> str:
    try:
        return sys.stdin.read() if path == "-" else Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None


def _write(path: Path, text: str, parents: bool = False) -> None:
    try:
        if parents:
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from None


def _load(path: str, parse=None):
    """What `parse` reads from `path`: by default the global type."""
    text = _read(path)
    try:
        return (parse or parse_gt)(text)
    except ParseError as exc:
        raise CliError(f"{path}: {exc}") from None


def _word_json(word) -> list[str]:
    return [str(a) for a in word]


def _witness_json(w) -> str | None:
    """A word of arrows or local actions joins its letters with `;`.  A word
    is a tuple of letters; a lone letter is a tuple too, but of names."""
    if isinstance(w, tuple) and all(isinstance(x, tuple) for x in w):
        return ";".join(_word_json(w))
    return None if w is None else str(w)


# ---------------------------------------------------------------------------
# text rendering


def _flat(value) -> str:
    """One line for a list item: a word or list joined by `;`, a dict as
    `{key: value, ...}`."""
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_flat(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return ";".join(_flat(v) for v in value)
    return str(value)


def _lines(payload: dict, indent: str = ""):
    for key, value in payload.items():
        if isinstance(value, dict):
            yield f"{indent}{key}:"
            yield from _lines(value, indent + "  ")
        elif isinstance(value, list):
            yield f"{indent}{key}: {len(value)}"
            yield from (f"{indent}  {_flat(v)}" for v in value)
        else:
            yield f"{indent}{key}: {value}"


def _render(payload: dict, output) -> str:
    for key in ("gt", "dot", "cfsms"):   # a payload that carries a document
        if key in payload:
            if output:
                return ""
            doc = payload[key]
            return doc if isinstance(doc, str) else "".join(t + "\n" for t in doc.values())
    return "".join(line + "\n" for line in _lines(payload))


# ---------------------------------------------------------------------------
# subcommands: each returns (payload, exit code)


def cmd_classify(args):
    g = _load(args.gt)
    return {"command": "classify", "name": g.name, **vars(classify(g))}, EXIT_HOLDS


_COMPLEMENT = {
    "dual": lambda g: ComplementResult(complement_dual(g), "dual", True),
    "cartesian": complement_cartesian,
    "renunciation": lambda g: ComplementResult(complement_renunciation(g),
                                               "renunciation", True),
    "auto": complement_auto,
}


def cmd_complement(args):
    r = _COMPLEMENT[args.method](_load(args.gt))
    text = render_gt(r.gtype)
    if args.output:
        _write(Path(args.output), text)
    return {"command": "complement", "method": r.method, "guaranteed": r.guaranteed,
            "note": r.note, "states": r.gtype.automaton.n_states, "gt": text}, EXIT_HOLDS


def cmd_verify_complement(args):
    report = verify_complement(_load(args.gt), _load(args.gbar), args.max_events)
    return {
        "command": "verify-complement",
        "max_events": report.max_events,
        "universe_size": report.universe_size,
        "passed": report.passed,
        "violations": [{"msc": _word_json(m.word), "kind": kind}
                       for m, kind in report.violations],
        "note": report.note,
    }, EXIT_HOLDS if report.passed else EXIT_FAILS


def cmd_member(args):
    g = _load(args.gt)
    m = parse_msc(args.msc, g.declaration)
    member = member_universal(g, m) if args.universal else member_existential(g, m)
    mode = "universal" if args.universal else "existential"
    return ({"command": "member", "msc": _word_json(m.word), "mode": mode, "member": member},
            EXIT_HOLDS if member else EXIT_FAILS)


def cmd_project(args):
    system = project(_load(args.gt))
    texts = {cfsm.process: render_cfsm(cfsm, system) for cfsm in system.cfsms}
    if args.output:
        for process, text in texts.items():
            _write(Path(args.output, f"{process}.cfsm"), text, parents=True)
    return {"command": "project", "cfsms": texts}, EXIT_HOLDS


def cmd_realisable(args):
    g = _load(args.gt)
    gbar = _load(args.complement)
    if args.model == "synch":
        v = check_sync_realisable(g, gbar)
        return {
            "command": "realisable",
            "model": "synch",
            "verdict": "holds" if v.realisable else "fails",
            "cc_holds": v.cc_holds,
            "cc_witness": None if v.cc_witness is None else _word_json(v.cc_witness),
            "deadlock_free": v.deadlock_free,
            "deadlock_witness": v.deadlock_witness,
        }, EXIT_HOLDS if v.realisable else EXIT_FAILS

    verdict = check_p2p_realisable(g, gbar, args.bound, args.max_events)
    conds = zip(("rsc", "orphan_free", "accept_completion", "synch_realisable"),
                (verdict.cond1_rsc, verdict.cond2_orphan_free,
                 verdict.cond3_accept_completion, verdict.cond4_synch))
    return {
        "command": "realisable",
        "model": "p2p",
        "bound": args.bound,
        "verdict": verdict.overall.value,
        "conditions": {
            name: {"status": c.status.value,
                   "witness": _witness_json(c.witness)}
            for name, c in conds
        },
        "note": ("semi-decision: conditions 1-3 checked up to the channel "
                 "bound and event budget only"),
    }, _STATUS_CODES[verdict.overall]


def cmd_simulate(args):
    system = project(_load(args.gt))
    report = p2p_explore(system, args.bound)
    _, mscs_bound_hit, rsc_violations = p2p_mscs(report, args.max_events)

    def stuck_json(cfg, path):
        return {"configuration": {
            "locals": {p: c.automaton.state_name(s)
                       for p, c, s in zip(report.processes, system.cfsms, cfg)},
            "channels": {f"{p}->{q}": list(ch) for (p, q), ch
                         in zip(report.channel_keys, cfg[len(system.cfsms):]) if ch},
        }, "path": _word_json(path)}

    bound_hit = report.bound_hit or mscs_bound_hit
    payload = {
        "command": "simulate",
        "model": "p2p",
        "bound": args.bound,
        "bound_hit": bound_hit,
        "configurations": len(report.configurations),
        "deadlocks": [stuck_json(*stuck) for stuck in report.deadlocks],
        "orphans": [stuck_json(*stuck) for stuck in report.orphans],
        "rsc_violations": [str(m) for m in rsc_violations],
    }
    if report.deadlocks or report.orphans or rsc_violations:
        return payload, EXIT_FAILS
    return payload, EXIT_UNKNOWN if bound_hit else EXIT_HOLDS


def cmd_dot(args):
    return {"command": "dot", "dot": render_dot(_load(args.file, parse_automaton))}, EXIT_HOLDS


def cmd_oracle_enumerate(args):
    from .oracle import enumerate_canonical  # only the oracle commands load the oracle

    universe = enumerate_canonical(_load(args.gt).declaration, args.max_events)
    ordered = sorted(universe, key=lambda m: (len(m), m.word))
    return {"command": "oracle-enumerate", "max_events": args.max_events,
            "count": len(universe),
            "mscs": [_word_json(m.word) for m in ordered]}, EXIT_HOLDS


_PREDICATES = {
    "k1>k2": lambda k1, k2, k3: k1 > k2,
    "k2>k3": lambda k1, k2, k3: k2 > k3,
    "k1>k2_or_k2>k3": lambda k1, k2, k3: k1 > k2 or k2 > k3,
    "true": lambda k1, k2, k3: True,
}


def cmd_oracle_count_profile(args):
    from .oracle import count_profile_check

    g = _load(args.gt)
    report = count_profile_check(g.automaton, g.declaration,
                                 _PREDICATES[args.predicate], args.max_len)
    return {
        "command": "oracle-count-profile",
        "predicate": args.predicate,
        "max_len": args.max_len,
        "checked_words": report.checked_words,
        "profile_words": report.profile_words,
        "passed": report.passed,
        "violations": [{"word": _word_json(w), "counts": list(counts)}
                       for w, counts in report.violations],
    }, EXIT_HOLDS if report.passed else EXIT_FAILS


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

    def add(name, func, subparsers=sub, **kwargs):
        p = subparsers.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="emit JSON")
        return p

    p = add("classify", cmd_classify, help="classification predicates")
    p.add_argument("gt")

    p = add("complement", cmd_complement, help="complement a global type")
    p.add_argument("gt")
    p.add_argument("--method", choices=tuple(_COMPLEMENT), default="auto")
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

    p = add("enumerate", cmd_oracle_enumerate, osub,
            help="enumerate the canonical-MSC universe")
    p.add_argument("gt", help="any .gt file; only its declaration is used")
    p.add_argument("--max-events", type=_positive_int, default=4)

    p = add("count-profile", cmd_oracle_count_profile, osub,
            help="count-profile predicate check")
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
        payload, code = args.func(args)
    except tuple(_ERROR_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _ERROR_CODES.items() if isinstance(exc, cls))
    if args.json:
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        if payload.get("guaranteed") is False:  # an unguaranteed complement
            print(f"warning: {payload['note']}", file=sys.stderr)
        sys.stdout.write(_render(payload, getattr(args, "output", None)))
    return code


if __name__ == "__main__":
    sys.exit(main())
