"""Serialization: instances, colorings, and run records as JSON.

A downstream user needs to move problem instances and solutions across
process boundaries — to archive experiment inputs, to feed externally
generated instances into the solvers, and to diff runs.  The schema is
deliberately plain JSON (no pickle):

* instance: ``{"directed": bool, "space": {"size", "offset"},
  "nodes": [...], "edges": [[u, v], ...],
  "lists": {"v": [colors...]}, "defects": {"v": {"color": d}}}``
* coloring: ``{"assignment": {"v": color},
  "orientation": [[u, v], ...] | null}``
* run record: instance + coloring + metrics summary + free-form info.

Round-trips are exact (tests include hypothesis round-trip properties).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import networkx as nx

from .core.coloring import ColoringResult, EdgeOrientation
from .core.colorspace import ColorSpace
from .core.instance import ListDefectiveInstance
from .sim.metrics import RunMetrics


# ----------------------------------------------------------------------
# instances
# ----------------------------------------------------------------------
def instance_to_dict(instance: ListDefectiveInstance) -> dict[str, Any]:
    """Schema dict of an instance (see module docstring)."""
    return {
        "directed": instance.directed,
        "space": {"size": instance.space.size, "offset": instance.space.offset},
        "nodes": sorted(instance.graph.nodes),
        "edges": sorted([int(u), int(v)] for u, v in instance.graph.edges),
        "lists": {str(v): list(instance.lists[v]) for v in instance.graph.nodes},
        "defects": {
            str(v): {str(x): d for x, d in sorted(instance.defects[v].items())}
            for v in instance.graph.nodes
        },
    }


def instance_from_dict(data: dict[str, Any]) -> ListDefectiveInstance:
    """Rebuild an instance from :func:`instance_to_dict` output."""
    graph = nx.DiGraph() if data["directed"] else nx.Graph()
    graph.add_nodes_from(int(v) for v in data["nodes"])
    graph.add_edges_from((int(u), int(v)) for u, v in data["edges"])
    space = ColorSpace(data["space"]["size"], data["space"].get("offset", 0))
    lists = {int(v): tuple(cols) for v, cols in data["lists"].items()}
    defects = {
        int(v): {int(x): int(d) for x, d in dv.items()}
        for v, dv in data["defects"].items()
    }
    return ListDefectiveInstance(graph, space, lists, defects)


# ----------------------------------------------------------------------
# colorings
# ----------------------------------------------------------------------
def coloring_to_dict(result: ColoringResult) -> dict[str, Any]:
    """Schema dict of a coloring (+ optional orientation)."""
    return {
        "assignment": {str(v): int(c) for v, c in sorted(result.assignment.items())},
        "orientation": (
            sorted([int(a), int(b)] for a, b in result.orientation.arcs)
            if result.orientation is not None
            else None
        ),
    }


def coloring_from_dict(data: dict[str, Any]) -> ColoringResult:
    """Rebuild a coloring from :func:`coloring_to_dict` output."""
    assignment = {int(v): int(c) for v, c in data["assignment"].items()}
    orientation = None
    if data.get("orientation") is not None:
        orientation = EdgeOrientation(
            {(int(a), int(b)) for a, b in data["orientation"]}
        )
    return ColoringResult(assignment, orientation)


# ----------------------------------------------------------------------
# run records
# ----------------------------------------------------------------------
def run_record(
    instance: ListDefectiveInstance,
    result: ColoringResult,
    metrics: RunMetrics,
    info: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Bundle instance + coloring + metric summary into one record."""
    return {
        "schema": "repro.run/1",
        "instance": instance_to_dict(instance),
        "coloring": coloring_to_dict(result),
        "metrics": metrics.summary(),
        "info": dict(info or {}),
    }


def save_json(data: dict[str, Any], path: str | Path) -> None:
    """Write a schema dict as sorted, indented JSON."""
    Path(path).write_text(json.dumps(data, indent=1, sort_keys=True))


def load_json(path: str | Path) -> dict[str, Any]:
    """Read a JSON file into a dict."""
    return json.loads(Path(path).read_text())


def save_run(
    instance: ListDefectiveInstance,
    result: ColoringResult,
    metrics: RunMetrics,
    path: str | Path,
    info: dict[str, Any] | None = None,
) -> None:
    """Write a full run record to a JSON file."""
    save_json(run_record(instance, result, metrics, info), path)


def save_graph_edgelist(graph: nx.Graph, path: str | Path) -> None:
    """Plain whitespace edge list (``u v`` per line; ``# n <count>`` header
    records isolated nodes).  The inverse of :func:`load_graph_edgelist`."""
    lines = [f"# n {graph.number_of_nodes()}"]
    lines += [f"{u} {v}" for u, v in sorted(tuple(sorted(e)) for e in graph.edges)]
    Path(path).write_text("\n".join(lines) + "\n")


def load_graph_edgelist(path: str | Path) -> nx.Graph:
    """Read a whitespace edge list with integer node ids.

    Accepts comments (``#``); an optional ``# n <count>`` header adds
    isolated nodes ``0..count-1`` missing from the edges.
    """
    g = nx.Graph()
    declared_n = None
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) == 2 and parts[0] == "n":
                declared_n = int(parts[1])
            continue
        parts = line.split()
        if len(parts) < 2:
            raise ValueError(f"bad edge line: {raw!r}")
        u, v = int(parts[0]), int(parts[1])
        g.add_edge(u, v)
    if declared_n is not None:
        g.add_nodes_from(range(declared_n))
    return g


def load_run(path: str | Path) -> tuple[ListDefectiveInstance, ColoringResult, dict]:
    """Load a run record: (instance, coloring, raw record)."""
    data = load_json(path)
    if data.get("schema") != "repro.run/1":
        raise ValueError(f"not a repro run record: {path}")
    return (
        instance_from_dict(data["instance"]),
        coloring_from_dict(data["coloring"]),
        data,
    )
