"""Graph serialization.

Formats:

* **edge list** — plain text, one ``u v [w]`` per line, ``#`` comments,
  optional ``%%vertices n`` header for isolated vertices.
* **Pajek .net** — the format of the tool the paper used to generate its
  scale-free inputs (``*Vertices`` / ``*Edges`` sections, 1-based ids).
* **METIS .graph** — the input format of the DD-phase partitioner.

Change streams are written and read as the JSONL change trace of
:mod:`repro.serve.traces`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Union

from ..errors import GraphError
from .graph import Graph

__all__ = [
    "write_edge_list",
    "read_edge_list",
    "write_pajek",
    "read_pajek",
    "write_metis",
    "read_metis",
]

_PathLike = Union[str, Path]


def write_edge_list(graph: Graph, path: _PathLike) -> None:
    """Write ``graph`` as a text edge list (weights always included)."""
    p = Path(path)
    with p.open("w", encoding="utf-8") as fh:
        fh.write(f"%%vertices {graph.num_vertices}\n")
        for v in graph.vertex_list():
            if graph.degree(v) == 0:
                fh.write(f"%%isolated {v}\n")
        for u, v, w in graph.edge_list():
            fh.write(f"{u} {v} {w!r}\n")


def read_edge_list(path: _PathLike) -> Graph:
    """Read a text edge list written by :func:`write_edge_list` (or any
    whitespace-separated ``u v [w]`` file)."""
    g = Graph()
    p = Path(path)
    with p.open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("%%isolated"):
                g.add_vertex(int(line.split()[1]), exist_ok=True)
                continue
            if line.startswith("%%"):
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise GraphError(f"{p}:{lineno}: malformed edge line {line!r}")
            u, v = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
            g.add_vertex(u, exist_ok=True)
            g.add_vertex(v, exist_ok=True)
            g.add_edge(u, v, w)
    return g


def write_pajek(graph: Graph, path: _PathLike) -> None:
    """Write ``graph`` in Pajek ``.net`` format (1-based contiguous ids)."""
    order = graph.vertex_list()
    index = {v: i + 1 for i, v in enumerate(order)}
    p = Path(path)
    with p.open("w", encoding="utf-8") as fh:
        fh.write(f"*Vertices {len(order)}\n")
        for v in order:
            fh.write(f'{index[v]} "{v}"\n')
        fh.write("*Edges\n")
        for u, v, w in graph.edge_list():
            fh.write(f"{index[u]} {index[v]} {w!r}\n")


def read_pajek(path: _PathLike) -> Graph:
    """Read a Pajek ``.net`` file.

    Vertex labels that parse as integers become the vertex ids; otherwise
    the 0-based position is used.
    """
    g = Graph()
    p = Path(path)
    section = None
    labels: Dict[int, int] = {}
    with p.open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("%"):
                continue
            low = line.lower()
            if low.startswith("*vertices"):
                section = "vertices"
                continue
            if low.startswith("*edges") or low.startswith("*arcs"):
                section = "edges"
                continue
            if line.startswith("*"):
                section = None
                continue
            parts = line.split()
            if section == "vertices":
                idx = int(parts[0])
                if len(parts) > 1:
                    label = parts[1].strip('"')
                    try:
                        vid = int(label)
                    except ValueError:
                        vid = idx - 1
                else:
                    vid = idx - 1
                labels[idx] = vid
                g.add_vertex(vid, exist_ok=True)
            elif section == "edges":
                if len(parts) < 2:
                    raise GraphError(f"{p}:{lineno}: malformed edge line {line!r}")
                a, b = int(parts[0]), int(parts[1])
                w = float(parts[2]) if len(parts) > 2 else 1.0
                u = labels.get(a, a - 1)
                v = labels.get(b, b - 1)
                g.add_vertex(u, exist_ok=True)
                g.add_vertex(v, exist_ok=True)
                g.add_edge(u, v, w)
    return g


def write_metis(graph: Graph, path: _PathLike) -> None:
    """Write ``graph`` in METIS ``.graph`` format.

    Header ``n m [fmt]``; one line per vertex (1-based ids) listing its
    neighbors — with ``fmt=001`` (edge weights) when any weight differs
    from 1.  The format the paper's DD-phase partitioner consumes.
    """
    order = graph.vertex_list()
    index = {v: i + 1 for i, v in enumerate(order)}
    weighted = any(w != 1.0 for _u, _v, w in graph.edges())
    p = Path(path)
    with p.open("w", encoding="utf-8") as fh:
        header = f"{len(order)} {graph.num_edges}"
        if weighted:
            header += " 001"
        fh.write(header + "\n")
        for v in order:
            parts = []
            for u, w in sorted(graph.neighbor_items(v)):
                parts.append(str(index[u]))
                if weighted:
                    parts.append(repr(float(w)))
            fh.write(" ".join(parts) + "\n")


def read_metis(path: _PathLike) -> Graph:
    """Read a METIS ``.graph`` file (fmt 0 or 001; vertex ids become
    0-based positions)."""
    p = Path(path)
    with p.open("r", encoding="utf-8") as fh:
        # keep blank lines: each represents an isolated vertex; only
        # comment lines are dropped
        lines = [
            ln.strip()
            for ln in fh
            if not ln.lstrip().startswith("%")
        ]
    while lines and not lines[0]:
        lines.pop(0)  # leading blanks before the header carry no meaning
    if not lines:
        raise GraphError(f"{p}: empty METIS file")
    header = lines[0].split()
    if len(header) < 2:
        raise GraphError(f"{p}: malformed METIS header {lines[0]!r}")
    n, m = int(header[0]), int(header[1])
    fmt = header[2] if len(header) > 2 else "0"
    has_eweights = fmt.endswith("1")
    if fmt not in ("0", "00", "000", "1", "01", "001"):
        raise GraphError(f"{p}: unsupported METIS fmt {fmt!r}")
    if len(lines) - 1 != n:
        raise GraphError(
            f"{p}: header says {n} vertices but {len(lines) - 1} lines follow"
        )
    g = Graph()
    for v in range(n):
        g.add_vertex(v)
    for v, line in enumerate(lines[1:]):
        parts = line.split()
        step = 2 if has_eweights else 1
        for i in range(0, len(parts), step):
            u = int(parts[i]) - 1
            w = float(parts[i + 1]) if has_eweights else 1.0
            if not 0 <= u < n:
                raise GraphError(f"{p}: neighbor id {u + 1} out of range")
            if u != v and not g.has_edge(v, u):
                g.add_edge(v, u, w)
    if g.num_edges != m:
        raise GraphError(
            f"{p}: header says {m} edges but {g.num_edges} were read"
        )
    return g
