"""Ground-truth model of the k-th power of a directed path.

Vertices sit at positions 1..n; every edge points from a higher position
to a lower one at distance at most k, so position 1 is the unique sink.
The graph is held implicitly as (n, k): all structure is position
arithmetic, so predicates are O(1) and nothing is stored.

It owns the package's input rules, which callers call directly:
``_check_nk``, the graph exists (1 <= k < n); ``_check_below_degenerate``,
the bounds and the continuous model need 1 <= k < n-2; and ``_check_guard``,
the only code that raises ``ResourceGuardError`` for a size past its cap.
"""
from __future__ import annotations

from dataclasses import dataclass


def _check_nk(n: int, k: int) -> None:
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")


def _check_below_degenerate(n: int, k: int, what: str) -> None:
    _check_nk(n, k)
    if k >= n - 2:
        raise ValueError(f"{what} needs 1 <= k < n-2, got k={k}, n={n}")


class ResourceGuardError(Exception):
    """Raised when a request's size passes the cap that bounds its cost."""


def _check_guard(value: int, limit: int, what: str, force: bool | None = None,
                 name: str = "n") -> None:
    # force=None: the caller takes no force, so the message offers none.
    if value > limit and not force:
        advice = "" if force is None else "; pass force=True to override"
        raise ResourceGuardError(
            f"{what} is guarded at {name} <= {limit} (got {name}={value}){advice}")


@dataclass(frozen=True)
class PathPower:
    """Directed graph on positions 1..n with an edge i -> j iff 0 < i - j <= k."""

    n: int
    k: int

    def __post_init__(self) -> None:
        _check_nk(self.n, self.k)

    def _check_position(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise ValueError(f"position {i} out of range 1..{self.n}")

    def edge_exists(self, i: int, j: int) -> bool:
        """True iff there is a directed edge from position i to position j."""
        self._check_position(i)
        self._check_position(j)
        return 0 < i - j <= self.k

    def d_value(self, i: int, j: int) -> int:
        """Distance label of the edge i -> j: the count of underlying-path
        vertices strictly between the endpoints."""
        if not self.edge_exists(i, j):
            raise ValueError(f"no edge from {i} to {j} in PathPower(n={self.n}, k={self.k})")
        return i - j - 1

    def positions(self) -> range:
        return range(1, self.n + 1)
