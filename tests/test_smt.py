"""Differential and unit suite for the SMT-backed proving stack.

The IC3 checker is held to the same bar as every other checker: a
*conclusive* verdict that contradicts the exhaustive engine on a fully
explored state space is a soundness bug, never a tuning issue.
Because the real ``z3`` binary is optional, most of this module drives the
engine through a **fake solver**: a brute-force SMT-LIB interpreter
(complete for the finite-domain encodings the engine emits) written to a
temp file and injected via ``REPRO_SMT_Z3``.  That exercises the entire
pipeline -- encoder text, pipe protocol, model decoding, trace replay --
with no external dependency.  A small z3-gated tier on top re-runs the
differential against the real solver and proves a net beyond the
exhaustive horizon, matching the CI solver-matrix jobs.
"""

import pathlib

import pytest

from repro.campaign.cache import options_digest
from repro.campaign.jobs import VerificationJob, build_pipeline_model
from repro.dfs.examples import conditional_comp_dfs, linear_pipeline, token_ring
from repro.dfs.translation import to_petri_net
from repro.exceptions import (
    SolverError,
    SolverTimeoutError,
    SolverUnavailableError,
)
from repro.petri.invariants import (
    compute_semiflows,
    is_siphon,
    is_trap,
    maximal_trap_within,
    minimal_siphons,
    siphon_trap_certificate,
)
from repro.petri.net import PetriNet
from repro.petri.reachability import build_reachability_graph
from repro.reach.parser import parse
from repro.smt import solver as solver_module
from repro.smt.encoder import SmtEncoder
from repro.smt.sexpr import (
    atom_name,
    balanced,
    evaluate,
    parse_all,
    serialize,
    tokenize,
)
from repro.smt.sexpr import parse as parse_sexpr
from repro.smt.solver import (
    PipeSolver,
    require_solver,
    solver_available,
    solver_binary,
    solver_fingerprint,
    solver_respawns,
)
from repro.verification.checkers import (
    CHECKERS,
    CheckerContext,
    DeadlockQuery,
    ReachQuery,
    SafenessQuery,
    create_checker,
)

SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"

#: A brute-force SMT-LIB solver speaking the exact protocol subset
#: :class:`PipeSolver` emits.  Domains: Bool variables range over
#: {false, true}; Int selectors (``t@k``) over 0..max-literal; every other
#: Int over {0, 1} -- complete for the encoder's place variables, which
#: carry asserted 0/1 bounds anyway.  Assertions are checked as soon as
#: their last variable is assigned, so the search prunes instead of
#: enumerating the full cross product.
FAKE_SOLVER = '''#!/usr/bin/env python3
import sys

sys.path.insert(0, "@SRC@")
from repro.smt.sexpr import atom_name, evaluate, parse_all, serialize


def max_literal(expression, best=1):
    if isinstance(expression, str):
        try:
            return max(best, abs(int(expression)))
        except ValueError:
            return best
    for part in expression:
        best = max_literal(part, best)
    return best


def variables_of(expression, found):
    if isinstance(expression, str):
        found.add(atom_name(expression))
    else:
        for part in expression:
            variables_of(part, found)
    return found


def solve(names, sorts, assertions):
    top = 1
    for assertion in assertions:
        top = max_literal(assertion, top)
    index = dict((name, i) for i, name in enumerate(names))
    domains = []
    for name, sort in zip(names, sorts):
        if sort == "Bool":
            domains.append((False, True))
        elif name.startswith("t@"):
            domains.append(tuple(range(top + 1)))
        else:
            domains.append((0, 1))
    ground = []
    by_level = [[] for _ in names]
    for assertion in assertions:
        levels = [index[v] for v in variables_of(assertion, set())
                  if v in index]
        (by_level[max(levels)] if levels else ground).append(assertion)
    env = {}
    if not all(evaluate(a, env) for a in ground):
        return None

    def descend(i):
        if i == len(names):
            return True
        for value in domains[i]:
            env[names[i]] = value
            if all(evaluate(a, env) for a in by_level[i]) and descend(i + 1):
                return True
        del env[names[i]]
        return False

    return dict(env) if descend(0) else None


def main():
    frames = [[]]
    decls = [[]]
    model = None
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        for command in parse_all(line):
            head = atom_name(command[0])
            if head == "declare-const":
                decls[-1].append(
                    (atom_name(command[1]), atom_name(command[2])))
            elif head == "assert":
                frames[-1].append(command[1])
            elif head == "push":
                frames.append([])
                decls.append([])
            elif head == "pop":
                frames.pop()
                decls.pop()
            elif head in ("check-sat", "check-sat-assuming"):
                assertions = [a for level in frames for a in level]
                if head == "check-sat-assuming":
                    assertions = assertions + list(command[1])
                names, sorts = [], []
                for level in decls:
                    for name, sort in level:
                        names.append(name)
                        sorts.append(sort)
                model = solve(names, sorts, assertions)
                print("sat" if model is not None else "unsat", flush=True)
            elif head == "get-value":
                parts = []
                for term in command[1]:
                    value = (model or {}).get(atom_name(term), 0)
                    if value is True:
                        value = "true"
                    elif value is False:
                        value = "false"
                    parts.append("({} {})".format(serialize(term), value))
                print("({})".format(" ".join(parts)), flush=True)
            elif head == "exit":
                return


main()
'''


# -- shared nets --------------------------------------------------------------


def pair_ring():
    """A two-state cycle over complementary place pairs: a <-> b.

    Deadlock-free, 1-safe, invariant-complete (the semiflows pin every
    reachable-looking assignment), so IC3 proves with zero learned clauses.
    """
    net = PetriNet("pair_ring")
    for place, tokens in (("a", 1), ("na", 0), ("b", 0), ("nb", 1)):
        net.add_place(place, tokens=tokens)
    net.add_transition("t_ab")
    net.add_transition("t_ba")
    for src, dst in (("a", "t_ab"), ("nb", "t_ab"), ("t_ab", "na"),
                     ("t_ab", "b"), ("b", "t_ba"), ("na", "t_ba"),
                     ("t_ba", "nb"), ("t_ba", "a")):
        net.add_arc(src, dst)
    return net


def latch_ring():
    """pair_ring with a one-shot latch ``c``: consumes ``nc`` on the way out.

    Reaches a genuine deadlock in two steps (t_ab, t_ba), and the
    unreachable-but-invariant-consistent marking ``na & nc`` forces IC3 to
    learn a real clause rather than coast on the semiflows.
    """
    net = PetriNet("latch_ring")
    for place, tokens in (("a", 1), ("na", 0), ("b", 0), ("nb", 1),
                          ("c", 0), ("nc", 1)):
        net.add_place(place, tokens=tokens)
    net.add_transition("t_ab")
    net.add_transition("t_ba")
    for src, dst in (("a", "t_ab"), ("nb", "t_ab"), ("nc", "t_ab"),
                     ("t_ab", "na"), ("t_ab", "b"), ("t_ab", "c"),
                     ("b", "t_ba"), ("na", "t_ba"), ("t_ba", "nb"),
                     ("t_ba", "a")):
        net.add_arc(src, dst)
    return net


def wide_rings(count):
    """*count* independent pair_ring components: 2**count reachable states.

    The state space is exponential in *count* while the encoding stays
    linear, so IC3 closes instantly on a net the exhaustive engine cannot
    finish -- the beyond-the-horizon family of the z3 tier.
    """
    net = PetriNet("wide_rings_{}".format(count))
    for i in range(count):
        for place, tokens in (("a{}", 1), ("na{}", 0), ("b{}", 0),
                              ("nb{}", 1)):
            net.add_place(place.format(i), tokens=tokens)
        ab, ba = "t_ab{}".format(i), "t_ba{}".format(i)
        net.add_transition(ab)
        net.add_transition(ba)
        for src, dst in (("a{}", ab), ("nb{}", ab), (ab, "na{}"),
                         (ab, "b{}"), ("b{}", ba), ("na{}", ba),
                         (ba, "nb{}"), (ba, "a{}")):
            src = src.format(i) if isinstance(src, str) and "{}" in src else src
            dst = dst.format(i) if isinstance(dst, str) and "{}" in dst else dst
            net.add_arc(src, dst)
    return net


def marking_env(encoder, marking, step):
    """The sexpr-evaluator environment of *marking* at unrolling *step*."""
    return {"{}@{}".format(name, step): marking[name]
            for name in encoder.place_names}


def holds_all(formulas, env):
    return all(evaluate(parse_sexpr(formula), env) for formula in formulas)


# -- fixtures -----------------------------------------------------------------


@pytest.fixture(scope="session")
def fake_solver_script(tmp_path_factory):
    path = tmp_path_factory.mktemp("fakesmt") / "fake_z3.py"
    path.write_text(FAKE_SOLVER.replace("@SRC@", str(SRC_DIR)))
    path.chmod(0o755)
    return str(path)


@pytest.fixture
def fake_solver(fake_solver_script, monkeypatch):
    monkeypatch.delenv("REPRO_NO_Z3", raising=False)
    monkeypatch.setenv("REPRO_SMT_Z3", fake_solver_script)
    return fake_solver_script


@pytest.fixture
def no_solver(monkeypatch):
    monkeypatch.setenv("REPRO_NO_Z3", "1")


# -- the s-expression layer ---------------------------------------------------


class TestSexpr:
    def test_parse_serialize_round_trip(self):
        text = "(assert (= |p@0| (+ 1 (ite (= t 0) -1 0))))"
        assert serialize(parse_sexpr(text)) == text

    def test_parse_all_splits_top_level_forms(self):
        forms = parse_all("(push) (assert (> x 0)) (check-sat)")
        assert [atom_name(form[0]) for form in forms] == \
            ["push", "assert", "check-sat"]

    def test_balanced_tracks_depth(self):
        assert balanced("(and (= a 1)") is False
        assert balanced("(and (= a 1))") is True

    def test_tokenize_handles_piped_symbols(self):
        assert tokenize("(= |p@0| 1)") == ["(", "=", "|p@0|", "1", ")"]
        assert atom_name("|p@0|") == "p@0"

    def test_evaluate_core_theory(self):
        env = {"a": 1, "b": 0, "f": False}
        cases = (
            ("(and (>= a 1) (not (>= b 1)))", True),
            ("(or f (= (+ a b) 1))", True),
            ("(=> (= a 1) (distinct a b))", True),
            ("(ite (= b 0) (* 2 a) (- a)) ", None),
        )
        for text, expected in cases[:3]:
            assert evaluate(parse_sexpr(text), env) is expected
        assert evaluate(parse_sexpr(cases[3][0]), env) == 2
        assert evaluate(parse_sexpr("(- 5 2 1)"), env) == 2

    def test_unknown_symbol_is_a_loud_error(self):
        with pytest.raises(SolverError):
            evaluate(parse_sexpr("(frob a 1)"), {"a": 1})


# -- the encoder, differentially against the explored graph -------------------


class TestEncoder:
    @pytest.fixture(scope="class")
    def explored(self):
        net = to_petri_net(conditional_comp_dfs(comp_stages=1))
        graph = build_reachability_graph(net)
        encoder = SmtEncoder(net)
        return net, graph, encoder

    def test_step_relation_accepts_exactly_the_graph_edges(self, explored):
        net, graph, encoder = explored
        formulas = encoder.step_formulas(0)
        checked = 0
        for marking in graph.states:
            for transition, successor in graph.successors(marking):
                env = marking_env(encoder, marking, 0)
                env.update(marking_env(encoder, successor, 1))
                env["t@0"] = encoder.transition_names.index(transition)
                assert holds_all(formulas, env)
                # Corrupting any single place of the successor must break
                # the functional step relation.
                broken = dict(env)
                victim = encoder.place_names[0] + "@1"
                broken[victim] = 1 - broken[victim]
                assert not holds_all(formulas, broken)
                checked += 1
        assert checked > 10

    def test_disabled_selectors_are_rejected(self, explored):
        net, graph, encoder = explored
        formulas = encoder.step_formulas(0)
        marking = net.initial_marking()
        enabled = set(net.enabled_transitions(marking))
        disabled = [name for name in encoder.transition_names
                    if name not in enabled]
        env = marking_env(encoder, marking, 0)
        env.update(marking_env(encoder, marking, 1))
        env["t@0"] = encoder.transition_names.index(disabled[0])
        assert not holds_all(formulas, env)

    def test_deadlock_formula_matches_enabledness(self, explored):
        net, graph, encoder = explored
        formula = parse_sexpr(encoder.deadlock(0))
        for marking in graph.states:
            expected = not net.enabled_transitions(marking)
            assert evaluate(formula, marking_env(encoder, marking, 0)) \
                is expected

    def test_predicates_match_the_reach_evaluator(self, explored):
        net, graph, encoder = explored
        place_a, place_b = sorted(net.places)[:2]
        texts = (
            '$"{}"'.format(place_a),
            '!$"{}" | $"{}"'.format(place_a, place_b),
            '$"{}" -> $"{}"'.format(place_b, place_a),
            "tokens({}) >= 1 & tokens({}) != 1".format(place_a, place_b),
        )
        for text in texts:
            expression = parse(text)
            formula = parse_sexpr(encoder.predicate(expression, 0))
            for marking in graph.states:
                assert evaluate(formula, marking_env(encoder, marking, 0)) \
                    is bool(expression.evaluate(marking))

    def test_invariants_hold_on_every_reachable_marking(self, explored):
        net, graph, encoder = explored
        semiflows = compute_semiflows(net)
        assert semiflows
        formulas = encoder.invariants(semiflows, 0)
        for marking in graph.states:
            assert holds_all(formulas, marking_env(encoder, marking, 0))

    def test_marking_bounds_admit_exactly_the_0_1_markings(self, explored):
        net, graph, encoder = explored
        bounds = encoder.marking_bounds(0)
        for marking in graph.states:
            assert holds_all(bounds, marking_env(encoder, marking, 0))
        env = marking_env(encoder, net.initial_marking(), 0)
        env[encoder.place_names[0] + "@0"] = 2
        assert not holds_all(bounds, env)


# -- the pipe protocol: crash and timeout containment -------------------------


class TestPipeSolver:
    @staticmethod
    def script(tmp_path, body):
        path = tmp_path / "solver.py"
        path.write_text("#!/usr/bin/env python3\n" + body)
        path.chmod(0o755)
        return str(path)

    def test_canned_answers_flow_through(self, tmp_path):
        binary = self.script(tmp_path, (
            "import sys\n"
            "for line in sys.stdin:\n"
            "    if 'check-sat' in line: print('sat', flush=True)\n"
            "    elif 'get-value' in line:\n"
            "        print('((|p@0| 1) (|t@0| 0))', flush=True)\n"
            "    elif 'exit' in line: break\n"))
        with PipeSolver(binary=binary) as solver:
            assert solver.check_sat(timeout=10) == "sat"
            assert solver.get_values(["|p@0|", "|t@0|"], timeout=10) == \
                {"p@0": 1, "t@0": 0}

    def test_solver_crash_is_a_solver_error(self, tmp_path):
        binary = self.script(tmp_path, "import sys; sys.exit(3)\n")
        solver = PipeSolver(binary=binary)
        with pytest.raises(SolverError):
            solver.check_sat(timeout=5)
        solver.close()

    def test_hung_solver_times_out_and_is_killed(self, tmp_path,
                                                 monkeypatch):
        # The kill path, not the grace length, is under test.
        monkeypatch.setattr(solver_module, "HARD_TIMEOUT_GRACE", 0.2)
        binary = self.script(tmp_path, (
            "import sys, time\n"
            "for line in sys.stdin:\n"
            "    time.sleep(60)\n"))
        solver = PipeSolver(binary=binary)
        with pytest.raises(SolverTimeoutError):
            solver.check_sat(timeout=0.3)
        solver.close()
        assert not solver.alive

    def test_garbage_answer_is_a_solver_error(self, tmp_path):
        binary = self.script(tmp_path, (
            "import sys\n"
            "for line in sys.stdin:\n"
            "    if 'check-sat' in line: print('banana', flush=True)\n"))
        solver = PipeSolver(binary=binary)
        with pytest.raises(SolverError):
            solver.check_sat(timeout=5)
        solver.close()


# -- mid-session crash containment: the respawn path --------------------------


class TestSolverRespawn:
    """A solver that dies mid-query is respawned once, transparently."""

    def test_crash_once_solver_respawns_and_answers(self, tmp_path):
        """First check-sat kills the child; the respawn answers instead."""
        marker = str(tmp_path / "crashed-once")
        binary = TestPipeSolver.script(tmp_path, (
            "import os, sys\n"
            "marker = {!r}\n"
            "for line in sys.stdin:\n"
            "    if 'check-sat' in line:\n"
            "        if not os.path.exists(marker):\n"
            "            open(marker, 'w').close()\n"
            "            os._exit(9)\n"
            "        print('sat', flush=True)\n"
            "    elif 'get-value' in line:\n"
            "        print('((|p@0| 1))', flush=True)\n"
            "    elif 'exit' in line:\n"
            "        break\n").format(marker))
        with PipeSolver(binary=binary, timeout=30) as solver:
            assert solver.check_sat(timeout=30) == "sat"
            assert solver.respawns == 1
            # The respawned process serves the rest of the session.
            assert solver.get_values(["|p@0|"], timeout=30) == {"p@0": 1}

    def test_second_crash_on_the_same_query_is_a_solver_error(self, tmp_path):
        binary = TestPipeSolver.script(tmp_path, (
            "import os, sys\n"
            "for line in sys.stdin:\n"
            "    if 'check-sat' in line:\n"
            "        os._exit(9)\n"))
        solver = PipeSolver(binary=binary, timeout=30)
        with pytest.raises(SolverError):
            solver.check_sat(timeout=30)
        assert solver.respawns == 1  # exactly one retry, then give up
        solver.close()

    def test_timeout_kill_is_not_retried(self, tmp_path, monkeypatch):
        """A deliberate deadline kill must not trigger a doomed respawn."""
        monkeypatch.setattr(solver_module, "HARD_TIMEOUT_GRACE", 0.2)
        binary = TestPipeSolver.script(tmp_path, (
            "import sys, time\n"
            "for line in sys.stdin:\n"
            "    time.sleep(60)\n"))
        solver = PipeSolver(binary=binary)
        with pytest.raises(SolverTimeoutError):
            solver.check_sat(timeout=0.3)
        assert not solver.alive
        assert solver.respawns == 0
        solver.close()

    def test_injected_crash_fault_replays_the_session(self, fake_solver_script,
                                                      monkeypatch):
        """``solver_crash@query`` kills the child; the replayed transcript
        keeps the declarations and assertions of the session alive."""
        from repro.utils import faults
        monkeypatch.setenv("REPRO_FAULTS", "solver_crash@query=1")
        faults.reset()
        try:
            before = solver_respawns()
            with PipeSolver(binary=fake_solver_script, timeout=30) as solver:
                solver.write("(declare-const x Int)")
                solver.write("(assert (= x 1))")
                assert solver.check_sat(timeout=30) == "sat"
                assert solver.respawns == 1
                assert solver.get_values(["x"], timeout=30) == {"x": 1}
            assert solver_respawns() == before + 1
        finally:
            monkeypatch.delenv("REPRO_FAULTS", raising=False)
            faults.reset()

    def test_checker_details_surface_the_respawn_count(self, fake_solver,
                                                       monkeypatch):
        from repro.utils import faults
        monkeypatch.setenv("REPRO_FAULTS", "solver_crash@query=1")
        faults.reset()
        try:
            checker = create_checker("ic3", CheckerContext(latch_ring()))
            outcome = checker.check(DeadlockQuery())
            assert outcome.holds is False  # the verdict itself is unaffected
            assert "solver respawned 1 time(s)" in outcome.details
        finally:
            monkeypatch.delenv("REPRO_FAULTS", raising=False)
            faults.reset()


# -- optional-dependency gating (the REPRO_NO_Z3 path) ------------------------


class TestAvailability:
    def test_repro_no_z3_wins_over_everything(self, monkeypatch,
                                              fake_solver_script):
        monkeypatch.setenv("REPRO_SMT_Z3", fake_solver_script)
        monkeypatch.setenv("REPRO_NO_Z3", "1")
        assert solver_binary() is None
        assert solver_available() is False
        assert solver_fingerprint() is None
        with pytest.raises(SolverUnavailableError) as info:
            require_solver()
        assert "REPRO_NO_Z3" in str(info.value)

    def test_missing_binary_message_is_actionable(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_Z3", raising=False)
        monkeypatch.delenv("REPRO_SMT_Z3", raising=False)
        monkeypatch.setenv("PATH", "/nonexistent")
        with pytest.raises(SolverUnavailableError) as info:
            require_solver()
        assert "z3" in str(info.value)

    def test_solver_checkers_skip_cleanly_without_a_solver(self, no_solver):
        checker = create_checker("ic3", CheckerContext(pair_ring()))
        outcome = checker.check(DeadlockQuery())
        assert outcome.holds is None
        assert "solver" in outcome.details

    def test_portfolio_still_concludes_without_a_solver(self, no_solver):
        net = to_petri_net(token_ring(registers=4, tokens=1))
        checker = create_checker("portfolio", CheckerContext(net))
        assert checker.check(DeadlockQuery()).holds is True

    def test_cli_exits_2_with_a_named_binary(self, no_solver, capsys):
        from repro.workcraft.cli import main
        assert main(["verify", "--example", "ring", "--checker", "ic3"]) == 2
        stderr = capsys.readouterr().err
        assert "ic3" in stderr and "z3" in stderr

    def test_checker_help_is_generated_from_the_registry(self):
        from repro.workcraft.cli import _checker_help
        text = _checker_help()
        for name, cls in CHECKERS.items():
            assert name in text
            assert cls.summary


# -- the structural fallback: siphon/trap proofs ------------------------------


class TestSiphonTrap:
    def test_siphon_and_trap_predicates(self):
        net = pair_ring()
        assert is_siphon(net, {"a", "b"})
        assert is_trap(net, {"a", "b"})
        assert is_siphon(net, {"na", "nb"})
        assert not is_siphon(net, {"a"})
        assert maximal_trap_within(net, {"a", "b", "na"}) == {"a", "b", "na"}
        assert maximal_trap_within(net, {"na"}) == set()
        # Genuine shrinking: dropping b (whose production escapes) leaves
        # the one-shot latch place, which nothing ever consumes.
        assert maximal_trap_within(latch_ring(), {"b", "c"}) == {"c"}

    def test_minimal_siphons_of_the_pair_ring(self):
        siphons = minimal_siphons(pair_ring())
        assert frozenset({"a", "b"}) in siphons
        assert frozenset({"na", "nb"}) in siphons
        assert all(not s < t for s in siphons for t in siphons if s != t)

    def test_certificate_proves_the_pair_ring(self):
        certificate = siphon_trap_certificate(pair_ring())
        assert certificate["proved"]
        assert "(holds, unbounded)" in certificate["reason"]
        assert certificate["witnesses"]

    @pytest.mark.parametrize("factory", [
        lambda: linear_pipeline(stages=3),
        lambda: token_ring(registers=4, tokens=1),
    ])
    def test_certificate_proves_the_cli_example_families(self, factory):
        net = to_petri_net(factory())
        certificate = siphon_trap_certificate(
            net, semiflows=compute_semiflows(net))
        assert certificate["proved"]

    def test_certificate_never_proves_a_deadlocking_net(self):
        net = to_petri_net(build_pipeline_model(3, static_prefix=1, holes=[2]))
        certificate = siphon_trap_certificate(
            net, semiflows=compute_semiflows(net))
        assert not certificate["proved"]

    def test_inductive_checker_proves_deadlock_freedom(self):
        net = to_petri_net(linear_pipeline(stages=3))
        checker = create_checker("inductive", CheckerContext(net))
        outcome = checker.check(DeadlockQuery())
        assert outcome.holds is True
        assert "(holds, unbounded)" in outcome.details

    def test_inductive_checker_reports_an_initially_dead_net(self):
        net = PetriNet("stuck")
        net.add_place("p", tokens=0)
        net.add_transition("t")
        net.add_arc("p", "t")
        checker = create_checker("inductive", CheckerContext(net))
        outcome = checker.check(DeadlockQuery())
        assert outcome.holds is False
        assert outcome.witnesses


# -- the engines, end to end through the fake solver --------------------------


class TestEnginesWithFakeSolver:
    def test_ic3_proves_unbounded(self, fake_solver):
        checker = create_checker("ic3", CheckerContext(pair_ring()))
        unreach = checker.check(ReachQuery('$"a" & $"b"'))
        assert unreach.holds is True
        assert "holds, unbounded" in unreach.details
        assert checker.check(DeadlockQuery()).holds is True

    def test_ic3_falsifies_a_reach_query_with_a_trace(self, fake_solver):
        checker = create_checker("ic3", CheckerContext(pair_ring()))
        outcome = checker.check(ReachQuery('$"na" & $"b"'))
        assert outcome.holds is False
        assert outcome.witnesses[0]["trace"] == ["t_ab"]

    def test_ic3_learns_a_certificate(self, fake_solver):
        net = latch_ring()
        checker = create_checker("ic3", CheckerContext(net))
        outcome = checker.check(ReachQuery('$"na" & $"nc"'))
        assert outcome.holds is True
        assert "holds, unbounded" in outcome.details
        assert checker.certificate["clauses"]

    def test_ic3_falsifies_with_a_trace(self, fake_solver):
        net = latch_ring()
        outcome = create_checker("ic3", CheckerContext(net)).check(
            DeadlockQuery())
        assert outcome.holds is False
        trace = outcome.witnesses[0]["trace"]
        assert trace == ["t_ab", "t_ba"]
        marking = net.initial_marking()
        for transition in trace:
            marking = net.fire(transition, marking)
        assert not net.enabled_transitions(marking)
        assert outcome.witnesses[0]["marking"] == marking

    def test_conclusive_verdicts_agree_with_exhaustive(self, fake_solver):
        for net in (pair_ring(), latch_ring()):
            context = CheckerContext(net)
            exhaustive = create_checker("exhaustive", context)
            queries = (DeadlockQuery(), ReachQuery('$"a" & $"b"'),
                       ReachQuery('$"na" & $"b"'))
            for query in queries:
                truth = exhaustive.check(query).holds
                assert truth is not None
                verdict = create_checker("ic3", context).check(query).holds
                assert verdict is None or verdict is truth, \
                    "ic3 contradicts exhaustive on {}/{}".format(
                        net.name, query.kind)

    def test_induction_concludes_where_exhaustive_truncates(self, fake_solver):
        context = CheckerContext(pair_ring(), max_states=1)
        assert create_checker(
            "exhaustive", context).check(DeadlockQuery()).holds is None
        outcome = create_checker("ic3", context).check(DeadlockQuery())
        assert outcome.holds is True
        assert "holds, unbounded" in outcome.details

    def test_ic3_declines_safeness(self, fake_solver):
        outcome = create_checker("ic3", CheckerContext(pair_ring())).check(
            SafenessQuery())
        assert outcome.holds is None


# -- cache digests and the service surface ------------------------------------


class TestSolverDigests:
    def test_solver_checkers_pin_the_fingerprint(self):
        base = dict(kwargs={"comp_stages": 1}, properties=("deadlock",))
        for name in ("ic3", "portfolio"):
            options = VerificationJob(
                "j", "conditional", checker=name, **base).options()
            assert "solver" in options
        exhaustive = VerificationJob(
            "j", "conditional", checker="exhaustive", **base).options()
        assert "solver" not in exhaustive

    def test_wire_form_never_smuggles_a_solver_key(self):
        job = VerificationJob("j", "conditional", checker="ic3",
                              kwargs={"comp_stages": 1},
                              properties=("deadlock",))
        payload = job.to_dict()
        payload["solver"] = "spoofed"
        round_tripped = VerificationJob.from_dict(payload)
        assert options_digest(round_tripped.options()) == \
            options_digest(job.options())

    def test_service_health_reports_the_solver(self):
        from repro.service.core import VerificationService
        service = VerificationService(parallelism=1)
        try:
            assert "solver" in service.healthz()
            assert "solver" in service.stats()
        finally:
            service.close()


# -- the real thing: z3-gated differential and beyond-the-horizon tier --------

requires_z3 = pytest.mark.skipif(
    not solver_available(), reason="needs the z3 binary on PATH")


@requires_z3
class TestWithRealZ3:
    def test_fingerprint_identifies_the_solver(self):
        fingerprint = solver_fingerprint()
        assert isinstance(fingerprint, str) and fingerprint

    @pytest.mark.parametrize("factory", [
        lambda: to_petri_net(conditional_comp_dfs(comp_stages=1)),
        lambda: to_petri_net(linear_pipeline(stages=3)),
        lambda: to_petri_net(token_ring(registers=4, tokens=1)),
        lambda: to_petri_net(build_pipeline_model(3, static_prefix=1,
                                                  holes=[2])),
    ])
    def test_conclusive_verdicts_agree_with_exhaustive(self, factory):
        net = factory()
        context = CheckerContext(net)
        exhaustive = create_checker("exhaustive", context)
        for query in (DeadlockQuery(), SafenessQuery()):
            truth = exhaustive.check(query).holds
            assert truth is not None
            verdict = create_checker("ic3", context).check(query).holds
            assert verdict is None or verdict is truth, \
                "ic3 contradicts exhaustive on {}/{}".format(
                    net.name, query.kind)

    def test_ic3_finds_the_hole_deadlock(self):
        net = to_petri_net(build_pipeline_model(3, static_prefix=1,
                                                holes=[2]))
        checker = create_checker("ic3", CheckerContext(net))
        outcome = checker.check(DeadlockQuery())
        assert outcome.holds is False
        marking = net.initial_marking()
        for transition in outcome.witnesses[0]["trace"]:
            marking = net.fire(transition, marking)
        assert not net.enabled_transitions(marking)

    def test_proofs_beyond_the_exhaustive_horizon(self):
        # 2**21 = 2,097,152 reachable states; the exhaustive engine is
        # truncated three orders of magnitude below that.
        net = wide_rings(21)
        context = CheckerContext(net, max_states=1000)
        assert create_checker("exhaustive", context).check(
            ReachQuery('$"a0" & $"b0"')).holds is None
        outcome = create_checker("ic3", context).check(
            ReachQuery('$"a0" & $"b0"'))
        assert outcome.holds is True
        assert "holds, unbounded" in outcome.details

    def test_ic3_proves_deadlock_freedom_beyond_the_horizon(self):
        context = CheckerContext(wide_rings(21), max_states=1000)
        outcome = create_checker("ic3", context).check(DeadlockQuery())
        assert outcome.holds is True
        assert "holds, unbounded" in outcome.details
