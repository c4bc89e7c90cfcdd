import ast
from pathlib import Path

import pytest

import stopflow
from stopflow import PathPower, bound_report, simulate
from stopflow import oracle as oracle_module
from stopflow.oracle import ContinuousArrival, continuous_win_indicator


def longest_path_vertices(g: PathPower, i: int, j: int) -> int:
    """Independent oracle: length (in vertices) of the longest directed path
    from i to j, by exhaustive DFS over intermediate hops."""
    best = 0
    stack = [(i, 1)]
    while stack:
        v, length = stack.pop()
        if v == j:
            best = max(best, length)
            continue
        for w in range(max(j, v - g.k), v):
            stack.append((w, length + 1))
    return best


def test_edge_examples():
    assert PathPower(4, 2).edge_exists(3, 1)
    assert not PathPower(4, 1).edge_exists(3, 1)
    assert not PathPower(6, 3).edge_exists(4, 4)
    assert PathPower(9, 2).edge_exists(7, 5)


def test_edges_are_downward_only():
    g = PathPower(6, 2)
    assert g.edge_exists(3, 2)
    assert not g.edge_exists(2, 3)


def test_d_value_examples():
    assert PathPower(9, 2).d_value(9, 7) == 1
    assert PathPower(9, 2).d_value(5, 4) == 0
    assert PathPower(4, 3).d_value(4, 1) == 2


def test_d_value_matches_longest_path_enumeration():
    for n in range(2, 9):
        for k in range(1, n):
            g = PathPower(n, k)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if g.edge_exists(i, j):
                        assert g.d_value(i, j) == longest_path_vertices(g, i, j) - 2


def test_d_value_requires_edge():
    g = PathPower(5, 2)
    with pytest.raises(ValueError):
        g.d_value(5, 1)
    with pytest.raises(ValueError):
        g.d_value(2, 4)


def test_is_sink():
    # position 1 is the unique vertex without outgoing edges
    for g in (PathPower(5, 2), PathPower(2, 1)):
        sinks = [i for i in g.positions()
                 if not any(g.edge_exists(i, j) for j in g.positions())]
        assert sinks == [1]


def test_degree_invariants_exhaustive():
    for n in range(2, 13):
        for k in range(1, n):
            g = PathPower(n, k)
            for i in g.positions():
                outs = sum(g.edge_exists(i, j) for j in g.positions())
                ins = sum(g.edge_exists(j, i) for j in g.positions())
                assert outs == min(k, i - 1)
                assert ins == min(k, n - i)


def test_edge_count_identity():
    for n in range(2, 13):
        for k in range(1, n):
            g = PathPower(n, k)
            counted = sum(
                g.edge_exists(i, j) for i in g.positions() for j in g.positions()
            )
            assert counted == n * k - k * (k + 1) // 2


def test_full_power_is_linear_order():
    g = PathPower(6, 5)
    for i in g.positions():
        for j in g.positions():
            assert g.edge_exists(i, j) == (i > j)


def test_first_power_is_plain_path():
    g = PathPower(6, 1)
    for i in g.positions():
        for j in g.positions():
            assert g.edge_exists(i, j) == (i == j + 1)


def test_construction_guards():
    with pytest.raises(ValueError):
        PathPower(1, 1)
    with pytest.raises(ValueError):
        PathPower(5, 0)
    with pytest.raises(ValueError):
        PathPower(5, 5)
    PathPower(5, 4)  # k = n-1 is allowed


def test_position_range_checks():
    g = PathPower(4, 2)
    with pytest.raises(ValueError):
        g.edge_exists(0, 1)
    with pytest.raises(ValueError):
        g.edge_exists(1, 5)
    with pytest.raises(ValueError):
        g.d_value(5, 4)


@pytest.mark.parametrize("n, k", [(1, 1), (2, 0), (5, 5), (5, 9), (3, -1)])
def test_graph_rejects_a_power_outside_1_to_n_minus_1(n, k):
    with pytest.raises(ValueError, match=rf"^need 1 <= k < n, got k={k}, n={n}$"):
        PathPower(n, k)


@pytest.mark.parametrize("n", [3, 4, 5, 9])
def test_every_caller_of_the_k_below_n_minus_2_rule_raises_one_form(n):
    # The analytic bounds and the continuous model share graph's one rule;
    # only the name of what needs it differs.
    k = n - 2
    tail = rf"needs 1 <= k < n-2, got k={k}, n={n}$"
    with pytest.raises(ValueError, match="^continuous model " + tail):
        simulate(n, k, None, 10, master_seed=0)
    with pytest.raises(ValueError, match="^continuous model " + tail):
        continuous_win_indicator(PathPower(n, k), ContinuousArrival((0.5,) * n))
    with pytest.raises(ValueError, match="^bound " + tail):
        bound_report(n, k)


def test_a_power_outside_the_graph_fails_before_the_k_below_n_minus_2_rule():
    for call in (lambda: simulate(5, 9, None, 10, master_seed=0), lambda: bound_report(5, 9)):
        with pytest.raises(ValueError, match=r"^need 1 <= k < n, got k=9, n=5$"):
            call()


def guard_calls(tree: ast.AST) -> list[int]:
    """Lines of every ResourceGuardError(...) call under ``tree``, by any name path."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "ResourceGuardError"]


def test_only_check_guard_raises_a_resource_guard():
    # One owner for the guard rule: every guard in the package is built inside
    # graph._check_guard, so every guard message reads the same.
    sites, owned = [], []
    for path in sorted(Path(stopflow.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        sites += [(path.name, line) for line in guard_calls(tree)]
        owned += [(path.name, line) for func in ast.walk(tree)
                  if isinstance(func, ast.FunctionDef) and func.name == "_check_guard"
                  for line in guard_calls(func)]
    assert sites == owned and [name for name, _ in owned] == ["graph.py"]


def test_the_guard_error_has_one_class_under_every_public_name():
    assert stopflow.ResourceGuardError is oracle_module.ResourceGuardError
