"""A small directed graph and the three traversals the SFG needs.

:class:`DiGraph` keeps nodes and each node's successors/predecessors in
insertion order (a repeated edge keeps its first position), and the
algorithms below enumerate in an order fixed by that insertion order
alone, never by hashing:

* :func:`strongly_connected_components` — nonrecursive Tarjan;
* :func:`condensed_components` — the components in topological order of
  the condensation (Kahn's algorithm, generation by generation);
* :func:`simple_cycles` — Johnson's algorithm for elementary cycles.

These orders are the ones the SFG had when it was built on a
third-party graph library; ``tests/test_property_digraph.py`` compares
them with that library where it is installed.

>>> g = DiGraph()
>>> for u, v in [(1, 2), (2, 1), (2, 3), (3, 3)]:
...     g.add_edge(u, v)
>>> [sorted(c) for c in condensed_components(g)]
[[1, 2], [3]]
>>> sorted(sorted(c) for c in simple_cycles(g))
[[1, 2], [3]]
"""

from __future__ import annotations

from collections import defaultdict, deque

__all__ = ["DiGraph", "strongly_connected_components",
           "condensed_components", "simple_cycles"]


class DiGraph:
    """Directed graph without parallel edges; iteration is insertion order."""

    __slots__ = ("succ", "pred")

    def __init__(self):
        #: node -> {successor: None}
        self.succ = {}
        #: node -> {predecessor: None}
        self.pred = {}

    def add_node(self, node):
        if node not in self.succ:
            self.succ[node] = {}
            self.pred[node] = {}

    def add_edge(self, u, v):
        self.add_node(u)
        self.add_node(v)
        self.succ[u][v] = None
        self.pred[v][u] = None

    def __iter__(self):
        return iter(self.succ)

    def __len__(self):
        return len(self.succ)

    def has_edge(self, u, v):
        return v in self.succ.get(u, ())

    def in_degree(self, node):
        return len(self.pred[node])

    def out_degree(self, node):
        return len(self.succ[node])

    def number_of_edges(self):
        return sum(len(s) for s in self.succ.values())


def _tarjan(adj):
    """SCCs of ``adj`` (node -> iterable of successors), as sets.

    Nonrecursive Tarjan: roots are tried in ``adj``'s key order and
    successors in their iteration order, so the yield order is a
    function of the graph's insertion order.
    """
    preorder = {}
    lowlink = {}
    found = set()
    scc_stack = []
    count = 0
    neighbors = {v: iter(adj[v]) for v in adj}
    for source in adj:
        if source in found:
            continue
        stack = [source]
        while stack:
            v = stack[-1]
            if v not in preorder:
                count += 1
                preorder[v] = count
            done = True
            for w in neighbors[v]:
                if w not in preorder:
                    stack.append(w)
                    done = False
                    break
            if not done:
                continue
            low = preorder[v]
            for w in adj[v]:
                if w not in found:
                    low = min(low, lowlink[w] if preorder[w] > preorder[v]
                              else preorder[w])
            lowlink[v] = low
            stack.pop()
            if low == preorder[v]:
                scc = {v}
                while scc_stack and preorder[scc_stack[-1]] > preorder[v]:
                    scc.add(scc_stack.pop())
                found.update(scc)
                yield scc
            else:
                scc_stack.append(v)


def strongly_connected_components(g):
    """Yield the strongly connected components of ``g`` as sets."""
    return _tarjan(g.succ)


def condensed_components(g):
    """The SCCs of ``g`` (sets) in topological order of the condensation.

    Components are numbered in Tarjan yield order; the condensation's
    edges are inserted in ``g``'s edge order; Kahn's algorithm then
    emits the in-degree-0 components by number, and each newly freed
    component after the one whose edge freed it.
    """
    comps = list(strongly_connected_components(g))
    comp_of = {n: i for i, c in enumerate(comps) for n in c}
    csucc = [{} for _ in comps]
    indegree = [0] * len(comps)
    for u, succs in g.succ.items():
        cu = comp_of[u]
        for v in succs:
            cv = comp_of[v]
            if cv != cu and cv not in csucc[cu]:
                csucc[cu][cv] = None
                indegree[cv] += 1
    ready = deque(i for i, d in enumerate(indegree) if d == 0)
    order = []
    while ready:
        c = ready.popleft()
        order.append(comps[c])
        for d in csucc[c]:
            indegree[d] -= 1
            if indegree[d] == 0:
                ready.append(d)
    return order


def simple_cycles(g):
    """Yield every elementary cycle of ``g`` as a list of nodes.

    Self-loops come first, in node order.  The rest follows Johnson's
    algorithm: search the last pending nontrivial SCC from its first
    node (in ``g``'s node order), then drop that node and queue the
    SCCs of what remains.
    """
    for v, succs in g.succ.items():
        if v in succs:
            yield [v]
    adj = {u: [w for w in succs if w != u] for u, succs in g.succ.items()}
    pending = [c for c in _tarjan(adj) if len(c) > 1]
    while pending:
        comp = pending.pop()
        sub = {u: [w for w in adj[u] if w in comp] for u in adj if u in comp}
        start = next(iter(sub))
        yield from _johnson_search(sub, start)
        rest = {u: [w for w in ws if w != start]
                for u, ws in sub.items() if u != start}
        pending.extend(c for c in _tarjan(rest) if len(c) > 1)


def _johnson_search(adj, start):
    """Elementary cycles through ``start`` within one SCC ``adj``."""
    path = [start]
    blocked = {start}
    blocked_by = defaultdict(set)
    stack = [iter(adj[start])]
    closed = [False]
    while stack:
        for w in stack[-1]:
            if w == start:
                yield path[:]
                closed[-1] = True
            elif w not in blocked:
                path.append(w)
                closed.append(False)
                stack.append(iter(adj[w]))
                blocked.add(w)
                break
        else:
            stack.pop()
            v = path.pop()
            if closed.pop():
                if closed:
                    closed[-1] = True
                unblock = {v}
                while unblock:
                    u = unblock.pop()
                    if u in blocked:
                        blocked.remove(u)
                        unblock.update(blocked_by[u])
                        blocked_by[u].clear()
            else:
                for w in adj[v]:
                    blocked_by[w].add(v)
