"""List defective coloring instances (Definition 1.1 of the paper).

An instance bundles a graph with, for every node ``v``:

* a color list ``L_v`` drawn from a common color space ``C``; and
* a defect function ``d_v : L_v -> N_0`` assigning an allowed defect to
  each color in the list.

The three problem variants of Definition 1.1 share the same input data and
differ only in how defects are counted against the output:

* **LDC** (list defective coloring): at most ``d_v(phi(v))`` *neighbors* of
  ``v`` share ``v``'s color.
* **OLDC** (oriented list defective coloring): the graph is directed and at
  most ``d_v(phi(v))`` *out-neighbors* share the color.
* **list arbdefective coloring**: the output additionally contains an edge
  orientation, and the OLDC condition must hold w.r.t. that orientation.

Instance builders for the standard special cases (``(Delta+1)``-coloring,
``(degree+1)``-list coloring, ``d``-defective ``c``-coloring, ...) live here
too, so the experiments and tests construct inputs through one audited path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import networkx as nx

from .colorspace import ColorSpace


@dataclass
class ListDefectiveInstance:
    """A list defective coloring instance on an (un)directed graph.

    Attributes
    ----------
    graph:
        ``networkx`` graph.  ``nx.Graph`` for LDC / list arbdefective
        instances, ``nx.DiGraph`` for OLDC instances.
    space:
        The common color space ``C``.
    lists:
        ``node -> sorted tuple of colors`` (the list ``L_v``).
    defects:
        ``node -> {color: defect}`` with exactly the list colors as keys.
    """

    graph: nx.Graph
    space: ColorSpace
    lists: dict[int, tuple[int, ...]]
    defects: dict[int, dict[int, int]]

    def __post_init__(self) -> None:
        for v in self.graph.nodes:
            if v not in self.lists:
                raise ValueError(f"node {v} has no color list")
            lst = tuple(sorted(set(self.lists[v])))
            self.lists[v] = lst
            dv = self.defects.get(v)
            if dv is None:
                raise ValueError(f"node {v} has no defect function")
            if set(dv) != set(lst):
                raise ValueError(
                    f"node {v}: defect function keys {sorted(dv)} != list {list(lst)}"
                )
            for x, d in dv.items():
                if x not in self.space:
                    raise ValueError(f"node {v}: color {x} outside color space")
                if d < 0:
                    raise ValueError(f"node {v}: negative defect {d} for color {x}")

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def directed(self) -> bool:
        return self.graph.is_directed()

    @property
    def n(self) -> int:
        return self.graph.number_of_nodes()

    def degree(self, v: int) -> int:
        """Undirected degree (for digraphs: total in+out neighbor count)."""
        if self.directed:
            return len(set(self.graph.predecessors(v)) | set(self.graph.successors(v)))
        return self.graph.degree(v)

    def outdegree(self, v: int) -> int:
        """Paper's beta_v: the outdegree of ``v``, clamped to at least 1."""
        if not self.directed:
            raise ValueError("outdegree only defined for directed instances")
        return max(1, self.graph.out_degree(v))

    @property
    def max_degree(self) -> int:
        """Delta of the (underlying undirected) graph."""
        if self.n == 0:
            return 0
        return max(self.degree(v) for v in self.graph.nodes)

    @property
    def max_outdegree(self) -> int:
        """Paper's beta: maximum (clamped) outdegree."""
        return max(self.outdegree(v) for v in self.graph.nodes)

    @property
    def max_list_size(self) -> int:
        """Paper's Lambda: the maximum list size over all nodes."""
        return max((len(lst) for lst in self.lists.values()), default=0)

    def list_of(self, v: int) -> tuple[int, ...]:
        """Node ``v``'s color list ``L_v``."""
        return self.lists[v]

    def defect_of(self, v: int, color: int) -> int:
        """``d_v(color)`` — KeyError when the color is not on the list."""
        return self.defects[v][color]

    def defect_weight(self, v: int, exponent: float = 1.0) -> float:
        """``sum_{x in L_v} (d_v(x) + 1) ** exponent``.

        These sums appear in every condition of the paper: Eq. (1) uses
        exponent 1, Theorem 1.1 / Eq. (3) uses exponent 2 and Theorem 1.2
        the general ``1 + nu``.
        """
        return float(sum((d + 1) ** exponent for d in self.defects[v].values()))

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def to_oriented(self) -> "ListDefectiveInstance":
        """Bidirect an undirected instance into an equivalent OLDC instance.

        The paper (after Theorem 1.2) notes that replacing each edge
        ``{u, v}`` by the two arcs ``(u, v)`` and ``(v, u)`` makes the LDC
        problem on ``G`` equivalent to the OLDC problem on the bidirected
        graph: every neighbor is an out-neighbor, so the defect counts match.
        """
        if self.directed:
            return self
        dg = nx.DiGraph()
        dg.add_nodes_from(self.graph.nodes)
        for u, v in self.graph.edges:
            dg.add_edge(u, v)
            dg.add_edge(v, u)
        return ListDefectiveInstance(
            dg,
            self.space,
            {v: tuple(lst) for v, lst in self.lists.items()},
            {v: dict(d) for v, d in self.defects.items()},
        )

    def restrict(
        self,
        nodes: Sequence[int] | None = None,
        keep_color: Callable[[int, int], bool] | None = None,
    ) -> "ListDefectiveInstance":
        """Induced sub-instance on ``nodes`` with per-node color filtering.

        ``keep_color(v, x)`` decides whether color ``x`` stays in ``L_v``
        (used by the recursive color space reduction, and by Theorem 1.3's
        removal of colors whose residual defect budget is exhausted).
        """
        sub_nodes = list(self.graph.nodes) if nodes is None else list(nodes)
        sub = self.graph.subgraph(sub_nodes).copy()
        lists: dict[int, tuple[int, ...]] = {}
        defects: dict[int, dict[int, int]] = {}
        for v in sub_nodes:
            kept = [
                x
                for x in self.lists[v]
                if keep_color is None or keep_color(v, x)
            ]
            lists[v] = tuple(kept)
            defects[v] = {x: self.defects[v][x] for x in kept}
        return ListDefectiveInstance(sub, self.space, lists, defects)

    def copy(self) -> "ListDefectiveInstance":
        """Independent deep-enough copy (graph, lists, and defects)."""
        return ListDefectiveInstance(
            self.graph.copy(),
            self.space,
            {v: tuple(lst) for v, lst in self.lists.items()},
            {v: dict(d) for v, d in self.defects.items()},
        )


# ----------------------------------------------------------------------
# instance builders
# ----------------------------------------------------------------------
def uniform_instance(
    graph: nx.Graph,
    space: ColorSpace,
    colors: Sequence[int],
    defect: int,
) -> ListDefectiveInstance:
    """All nodes share the same list and the same constant defect.

    The classic ``d``-defective ``c``-coloring is the special case with
    ``colors = range(c)`` and ``defect = d``; the plain ``c``-coloring is the
    further special case ``defect = 0``.
    """
    lst = tuple(sorted(set(colors)))
    return ListDefectiveInstance(
        graph,
        space,
        {v: lst for v in graph.nodes},
        {v: {x: defect for x in lst} for v in graph.nodes},
    )


def delta_plus_one_instance(graph: nx.Graph) -> ListDefectiveInstance:
    """The standard ``(Delta + 1)``-coloring problem as an LDC instance."""
    delta = max((d for _, d in graph.degree), default=0)
    space = ColorSpace(delta + 1)
    return uniform_instance(graph, space, space.colors(), defect=0)


def degree_plus_one_instance(
    graph: nx.Graph,
    space: ColorSpace | None = None,
    rng: random.Random | None = None,
) -> ListDefectiveInstance:
    """A ``(degree+1)``-list coloring instance with random lists.

    Every node gets a list of exactly ``deg(v) + 1`` distinct colors drawn
    from ``space`` (defaults to a space of ``Delta + 1`` colors so the
    instance degenerates to ``(Delta+1)``-coloring when ``rng`` is ``None``).
    All defects are zero, matching the problem in Theorem 1.4.
    """
    delta = max((d for _, d in graph.degree), default=0)
    if space is None:
        space = ColorSpace(delta + 1)
    lists: dict[int, tuple[int, ...]] = {}
    for v in graph.nodes:
        need = graph.degree(v) + 1
        if need > space.size:
            raise ValueError(
                f"node {v}: needs {need} colors but space has {space.size}"
            )
        if rng is None:
            chosen = list(space.colors())[:need]
        else:
            chosen = rng.sample(list(space.colors()), need)
        lists[v] = tuple(sorted(chosen))
    defects = {v: {x: 0 for x in lists[v]} for v in graph.nodes}
    return ListDefectiveInstance(graph, space, lists, defects)


def random_list_defective_instance(
    graph: nx.Graph,
    space: ColorSpace,
    list_size: int,
    max_defect: int,
    rng: random.Random,
) -> ListDefectiveInstance:
    """Random lists of a fixed size with i.i.d. uniform defects in [0, max]."""
    if list_size > space.size:
        raise ValueError("list size exceeds color space")
    colors = list(space.colors())
    lists = {v: tuple(sorted(rng.sample(colors, list_size))) for v in graph.nodes}
    defects = {
        v: {x: rng.randint(0, max_defect) for x in lists[v]} for v in graph.nodes
    }
    return ListDefectiveInstance(graph, space, lists, defects)


def scaled_budget_instance(
    graph: nx.Graph,
    space: ColorSpace,
    weight_exponent: float,
    slack: float,
    max_defect: int,
    rng: random.Random,
    directed_outdegrees: Mapping[int, int] | None = None,
) -> ListDefectiveInstance:
    """An instance whose defect budget meets a target condition with slack.

    Builds, for each node, a random list/defect pair satisfying::

        sum_{x in L_v} (d_v(x) + 1) ** weight_exponent
            >= slack * base(v) ** weight_exponent

    where ``base(v)`` is ``deg(v)`` (or the provided outdegree).  This is the
    instance family used by experiments E05/E07 to probe the requirement of
    Theorem 1.1 at a controlled distance from the threshold.
    """
    colors = list(space.colors())
    lists: dict[int, tuple[int, ...]] = {}
    defects: dict[int, dict[int, int]] = {}
    for v in graph.nodes:
        if directed_outdegrees is not None:
            base = max(1, directed_outdegrees.get(v, 0))
        else:
            base = max(1, graph.degree(v))
        target = slack * float(base) ** weight_exponent
        chosen: list[int] = []
        dv: dict[int, int] = {}
        total = 0.0
        order = rng.sample(colors, len(colors))
        for x in order:
            if total >= target:
                break
            d = rng.randint(0, max_defect)
            chosen.append(x)
            dv[x] = d
            total += (d + 1) ** weight_exponent
        if total < target:
            raise ValueError(
                f"color space too small to reach budget for node {v}: "
                f"{total:.1f} < {target:.1f}"
            )
        lists[v] = tuple(sorted(chosen))
        defects[v] = dv
    return ListDefectiveInstance(graph, space, lists, defects)


@dataclass
class PartialColoring:
    """Bookkeeping for multi-stage algorithms (Theorem 1.3, Theorem 1.4).

    Tracks which nodes are colored, with what color, and the orientation of
    edges between colored nodes.  ``a_v(x)`` counters (number of colored
    neighbors of ``v`` holding color ``x``) are maintained incrementally.
    """

    instance: ListDefectiveInstance
    colors: dict[int, int] = field(default_factory=dict)
    orientation: dict[tuple[int, int], None] = field(default_factory=dict)
    taken_counts: dict[int, dict[int, int]] = field(default_factory=dict)

    def colored(self, v: int) -> bool:
        return v in self.colors

    def a(self, v: int, x: int) -> int:
        """Number of colored neighbors of ``v`` with color ``x``."""
        return self.taken_counts.get(v, {}).get(x, 0)

    def assign(self, v: int, color: int) -> None:
        if v in self.colors:
            raise ValueError(f"node {v} already colored")
        self.colors[v] = color
        g = self.instance.graph
        neigh = (
            set(g.predecessors(v)) | set(g.successors(v))
            if self.instance.directed
            else set(g.neighbors(v))
        )
        for u in neigh:
            self.taken_counts.setdefault(u, {})
            self.taken_counts[u][color] = self.taken_counts[u].get(color, 0) + 1

    def orient(self, u: int, v: int) -> None:
        """Record edge {u, v} as oriented from ``u`` to ``v``."""
        if (v, u) in self.orientation:
            raise ValueError(f"edge {{{u},{v}}} already oriented the other way")
        self.orientation[(u, v)] = None

    def out_neighbors(self, v: int) -> list[int]:
        return [b for (a, b) in self.orientation if a == v]

    def uncolored_nodes(self) -> list[int]:
        return [v for v in self.instance.graph.nodes if v not in self.colors]
