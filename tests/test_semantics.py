import itertools
import random

import pytest

from chorcheck import oracle
from chorcheck.automata import Nfa
from chorcheck.formats import parse_gt
from chorcheck.gtype import project
from chorcheck.oracle import (check_causal_closure, is_p2p_execution,
                              is_p2p_execution_by_sequence, is_rsc_schedulable,
                              linearisations_p2p, p2p_mscs_by_enumeration,
                              p2p_steps)
from chorcheck.randomgen import (random_commutation_deterministic,
                                 random_declaration, random_global_type,
                                 random_three_process_deterministic)
from chorcheck.semantics import (Cfsm, Event, Execution, ExecutionError,
                                 local_alphabet, msc_of_execution, p2p_explore,
                                 p2p_mscs, recv_action, send_action)

from conftest import THREE_SENDS


def s(p, q, m):
    return Event(True, p, q, m)


def r(p, q, m, match):
    return Event(False, p, q, m, match=match)


def test_local_action_str():
    assert str(send_action("p", "q", "m")) == "p!q:m"
    assert str(recv_action("q", "p", "m")) == "q?p:m"


def test_local_alphabet(real):
    acts = local_alphabet(real.declaration, "q")
    assert set(map(str, acts)) == {"q?p:a", "q!r:b"}


def test_cfsm_requires_a_deterministic_automaton():
    send = send_action("p", "q", "m")
    Cfsm("p", Nfa((send,), 2, {0}, {(0, send, 1)}, {1}))
    for initial, transitions in (({0}, {(0, send, 0), (0, send, 1)}),
                                 ({0, 1}, {(0, send, 1)})):
        with pytest.raises(ValueError, match="not deterministic"):
            Cfsm("p", Nfa((send,), 2, initial, transitions, {1}))


def test_execution_validation():
    with pytest.raises(ExecutionError):
        Execution((r("p", "q", "m", 0),))                   # no earlier send
    with pytest.raises(ExecutionError):
        Execution((s("p", "q", "m"), r("p", "q", "x", 0)))  # wrong message
    ok = Execution((s("p", "q", "m"), r("p", "q", "m", 0)))
    assert ok.unmatched_sends == frozenset()
    with pytest.raises(ExecutionError):
        Execution((s("p", "q", "m"), r("p", "q", "m", 0), r("p", "q", "m", 0)))


def test_msc_of_execution_interleaving_invariant():
    e1 = Execution((s("p", "q", "m"), s("r", "x", "n"), r("p", "q", "m", 0),
                    r("r", "x", "n", 1)))
    e2 = Execution((s("r", "x", "n"), s("p", "q", "m"), r("r", "x", "n", 0),
                    r("p", "q", "m", 1)))
    assert msc_of_execution(e1) == msc_of_execution(e2)


def test_linearisations_p2p_roundtrip():
    e = Execution((s("p", "q", "m"), r("p", "q", "m", 0), s("q", "p", "n"),
                   r("q", "p", "n", 2)))
    m = msc_of_execution(e)
    lins = linearisations_p2p(m)
    assert any(msc_of_execution(x) == m for x in lins)
    assert all(msc_of_execution(x) == m for x in lins)


def test_fifo_violation_detected():
    # two sends on the same channel received out of order
    e = Execution((s("p", "q", "a"), s("p", "q", "a"),
                   r("p", "q", "a", 1), r("p", "q", "a", 0)))
    assert not is_p2p_execution(e)
    assert not is_p2p_execution_by_sequence(e)
    ok = Execution((s("p", "q", "a"), s("p", "q", "a"),
                    r("p", "q", "a", 0), r("p", "q", "a", 1)))
    assert is_p2p_execution(ok)
    assert is_p2p_execution_by_sequence(ok)


def test_fifo_unmatched_earlier_send_blocks_later_receive():
    e = Execution((s("p", "q", "a"), s("p", "q", "a"), r("p", "q", "a", 1)))
    assert not is_p2p_execution(e)
    assert not is_p2p_execution_by_sequence(e)


def _random_candidate(rng):
    procs = ["p", "q", "x"]
    events = []
    sends = []
    for _ in range(rng.randint(1, 7)):
        if sends and rng.random() < 0.5:
            j = rng.choice(sends)
            ev = events[j]
            events.append(r(ev.sender, ev.receiver, ev.message, j))
            sends.remove(j)
        else:
            a, b = rng.sample(procs, 2)
            events.append(s(a, b, rng.choice("mn")))
            sends.append(len(events) - 1)
    return Execution(tuple(events))


def test_fifo_definitions_agree_on_random_executions():
    rng = random.Random(23)
    seen_both = seen_valid = 0
    for _ in range(200):
        e = _random_candidate(rng)
        a, b = is_p2p_execution(e), is_p2p_execution_by_sequence(e)
        assert a == b
        seen_both += 1
        seen_valid += a
    assert seen_valid and seen_valid < seen_both


def test_linearisations_p2p_brute_force():
    # the linearisations are exactly the event permutations that keep each
    # process's order and put every send before its receive
    rng = random.Random(23)
    for _ in range(200):
        e = _random_candidate(rng)
        expected = set()
        for perm in itertools.permutations(range(len(e.events))):
            pos = {old: new for new, old in enumerate(perm)}
            evs = [e.events[i] for i in perm]
            if any(a.process == b.process and i > j
                   for (a, i), (b, j) in itertools.combinations(
                       zip(evs, perm), 2)):
                continue
            if any(not ev.is_send and pos[ev.match] > k for k, ev in enumerate(evs)):
                continue
            expected.add(Execution(tuple(
                ev if ev.is_send else Event(False, ev.sender, ev.receiver,
                                            ev.message, match=pos[ev.match])
                for ev in evs)))
        assert set(linearisations_p2p(msc_of_execution(e))) == expected, str(e)


def test_rsc_schedulable():
    e = Execution((s("p", "q", "m"), r("p", "q", "m", 0)))
    ok, schedule = is_rsc_schedulable(msc_of_execution(e))
    assert ok and len(schedule.events) == 2
    # crossing square: both send before either receives
    cross = Execution((s("p", "q", "m"), s("q", "p", "n"),
                       r("p", "q", "m", 0), r("q", "p", "n", 1)))
    ok, schedule = is_rsc_schedulable(msc_of_execution(cross))
    assert not ok and schedule is None


def _seeded_types():
    for seed in range(20):
        rng = random.Random(seed)
        if seed % 2:
            decl = random_declaration(rng, 3, 2, 3)
            yield random_global_type(rng, decl, 3, deterministic=seed % 4 == 1)
        else:
            yield random_commutation_deterministic(rng, max_states=4, max_arrows=3)


def test_rsc_schedulable_brute_force(fixture_suite):
    # RSC means some linearisation puts each receive right after its send
    answers = set()
    for g in [*fixture_suite.values(), *_seeded_types()]:
        mscs, _, _ = p2p_mscs(p2p_explore(project(g), 2), 6)
        for m in mscs:
            ok, schedule = is_rsc_schedulable(m)
            expected = any(all(ev.is_send or ev.match == k - 1
                               for k, ev in enumerate(lin.events))
                           for lin in linearisations_p2p(m))
            assert ok == expected, (g.name, str(m))
            if ok:
                assert msc_of_execution(schedule) == m, (g.name, str(m))
            else:
                assert schedule is None
            answers.add(ok)
    assert answers == {True, False}


def test_p2p_explore_real(real):
    report = p2p_explore(project(real), 1)
    assert not report.deadlocks
    assert not report.orphans


def test_p2p_explore_deadlock(deadlock):
    report = p2p_explore(project(deadlock), 2)
    assert report.deadlocks
    cfg, path = report.deadlocks[0]
    assert path  # witness path leads somewhere


def _first_step_paths(init, steps):
    """Every configuration the oracle's `steps` reach from `init`, mapped to
    its breadth-first path through the step that first reached each
    configuration on it, and whether the bound blocked a send anywhere."""
    paths, blocked_any = {init: ()}, False
    order = [init]
    for cfg in order:
        enabled, blocked = steps(cfg)
        blocked_any = blocked_any or blocked
        for act, nxt in enabled:
            if nxt not in paths:
                paths[nxt] = paths[cfg] + (act,)
                order.append(nxt)
    return paths, blocked_any


def test_p2p_explore_graph_matches_oracle_steps(fixture_suite):
    # the configuration graph, its bound flag and its stuck configurations
    # against a breadth-first search over the oracle's own step function
    types = list(fixture_suite.values())
    for seed in range(30):
        rng = random.Random(seed)
        types.append(random_commutation_deterministic(rng, max_states=4, max_arrows=3)
                     if seed % 2 else random_three_process_deterministic(rng))
    seen = set()
    for g in types:
        system = project(g)
        accepting = [c.automaton.accepting for c in system.cfsms]
        for bound in (1, 2, 3):
            report = p2p_explore(system, bound)
            init, steps = p2p_steps(system, bound)
            paths, blocked_any = _first_step_paths(init, steps)
            # the report's configurations are flat: the locals, then the channels
            oracle_cfg = {states + contents: (states, contents) for states, contents in paths}
            assert report.configurations[0] == init[0] + init[1]
            assert set(report.configurations) == set(oracle_cfg), (g.name, bound)
            assert report.bound_hit == blocked_any, (g.name, bound)
            for n, cfg in enumerate(report.configurations):
                enabled, blocked = steps(oracle_cfg[cfg])
                assert [(a, oracle_cfg[report.configurations[j]])
                        for a, _, j in report.steps[n]] == enabled
                assert all(report.channel_keys[ch] == ((a.process, a.peer) if a.is_send
                                                       else (a.peer, a.process))
                           for a, ch, _ in report.steps[n])
                assert report.blocked[n] == blocked
            stuck = []
            for states, contents in paths:
                all_accepting = all(s in acc for s, acc in zip(states, accepting))
                if not steps((states, contents))[0] and not (all_accepting and not any(contents)):
                    stuck.append((states, contents, all_accepting))
            assert [cfg for cfg, _ in report.deadlocks] == [s + c for s, c, _ in stuck]
            for cfg, path in report.deadlocks:
                at = init
                for act in path:  # replay: a CFSM's action fixes its step
                    at = next(nxt for a, nxt in steps(at)[0] if a == act)
                assert at == oracle_cfg[cfg]
                # the breadth-first path, as short as the configuration's
                # distance and through the step that first reached each node
                assert path == paths[at], (g.name, bound)
            assert report.orphans == [(s + c, paths[(s, c)]) for s, c, acc in stuck if acc]
            seen.add((report.bound_hit, bool(report.deadlocks), bool(report.orphans)))
    assert {hit for hit, _, _ in seen} == {True, False}
    assert any(dl for _, dl, _ in seen) and any(orph for _, _, orph in seen)


def test_p2p_explore_bound_validation(real):
    for bound in (0, -1):
        with pytest.raises(ValueError):
            p2p_explore(project(real), bound)


def test_p2p_mscs_bound_validation(real):
    with pytest.raises(ValueError):
        p2p_mscs(p2p_explore(project(real), 2), -1)


def test_p2p_mscs_cross(cross):
    mscs, bound_hit, non_rsc = p2p_mscs(p2p_explore(project(cross), 2), 6)
    assert not bound_hit
    squares = [m for m in mscs if len(m) == 4]
    assert any(not is_rsc_schedulable(m)[0] for m in squares)
    # the crossing square is the only non-RSC MSC
    assert [str(m) for m in non_rsc] == ["p: p!q:m p?q:m' | q: q!p:m' q?p:m"]


def test_p2p_mscs_rsc_matches_reference(fixture_suite):
    # the RSC-ness carried through the search against the full schedule
    # search on every explored MSC
    types = list(fixture_suite.values())
    for seed in range(60):
        rng = random.Random(seed)
        types.append(random_commutation_deterministic(rng, max_states=4, max_arrows=4)
                     if seed % 2 else random_three_process_deterministic(rng))
    explored = flagged = 0
    for g in types:
        system = project(g)
        rsc = {}  # the reference's answer per MSC, shared by the three bounds
        for bound in (1, 2, 3):
            mscs, _, non_rsc = p2p_mscs(p2p_explore(system, bound), 6)
            for m in mscs:
                if m not in rsc:
                    rsc[m] = is_rsc_schedulable(m)[0]
            assert non_rsc == [m for m in mscs if not rsc[m]], (g.name, bound)
            explored, flagged = explored + len(mscs), flagged + len(non_rsc)
    assert 0 < flagged < explored


def test_p2p_mscs_matches_enumeration(fixture_suite):
    # the incremental MSCs and the memo against every execution's MSC built
    # from scratch: same MSCs in the same discovery order, same bound flag
    cases = [(g, bound, budget) for g in fixture_suite.values()
             for bound in (1, 2, 3) for budget in (5, 6)]
    three = parse_gt(THREE_SENDS)  # only the channel bound cuts its search
    cases += [(three, bound, 8) for bound in (1, 2)]
    for seed in range(30):
        rng = random.Random(seed)
        decl = random_declaration(rng, rng.randint(3, 4), 2, rng.randint(2, 4))
        g = random_global_type(rng, decl, rng.randint(2, 4),
                               deterministic=seed % 3 != 2)
        cases.append((g, rng.randint(1, 3), rng.randint(5, 6)))
    flags, explored, flagged = set(), 0, 0
    reports = {}  # one configuration graph per (type, bound)
    for g, bound, budget in cases:
        system = project(g)
        if (id(g), bound) not in reports:
            reports[(id(g), bound)] = p2p_explore(system, bound)
        mscs, bound_hit, non_rsc = p2p_mscs(reports[(id(g), bound)], budget)
        expected, expected_hit, expected_non_rsc = p2p_mscs_by_enumeration(
            system, bound, budget)
        assert mscs == expected, (g.name, bound, budget)
        assert bound_hit == expected_hit, (g.name, bound, budget)
        assert non_rsc == expected_non_rsc, (g.name, bound, budget)
        flags.add(bound_hit)
        explored, flagged = explored + len(mscs), flagged + len(non_rsc)
    assert flags == {True, False}
    assert 0 < flagged < explored


def test_causal_closure_fixtures(fixture_suite):
    for g in fixture_suite.values():
        report = check_causal_closure(project(g), 2, 6)
        assert report.passed, g.name
        assert report.checked_linearisations >= report.checked_mscs


def test_causal_closure_reports_non_fifo_msc(real, monkeypatch):
    # a hand-built MSC whose two same-channel messages overtake each other
    e = Execution((s("p", "q", "a"), s("p", "q", "a"),
                   r("p", "q", "a", 1), r("p", "q", "a", 0)))
    m = msc_of_execution(e)
    monkeypatch.setattr(oracle, "p2p_mscs", lambda *args: ([m], False, []))
    report = check_causal_closure(project(real), 2, 6)
    assert not report.passed
    assert report.checked_mscs == 1
    # the MSC-level check plus every one of its linearisations
    assert len(report.violations) == 1 + report.checked_linearisations
