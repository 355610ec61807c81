"""Signal flow graph data structure.

The analytical MSB method of the paper (Section 4.1) evaluates signal
ranges "by constructing a signal flowgraph out of the source code and
analyzing the data flow using the same range propagation mechanism".
In this environment the graph is built from the interval tape of a
short recorded run (:meth:`SFG.from_tape`, recorded by
:func:`repro.sfg.build.trace`) and stored here as a
:class:`~repro.sfg.digraph.DiGraph` of typed nodes.

Node kinds:

* ``sig`` / ``reg`` — a design signal (registers are delay elements and
  the legal place for feedback cycles),
* ``op`` — one arithmetic/select/cast operation,
* ``const`` — a literal operand.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.core.errors import DesignError
from repro.sfg.digraph import (DiGraph, condensed_components, simple_cycles,
                               strongly_connected_components)
from repro.signal.interval_tape import ASSIGN

__all__ = ["Node", "SFG"]


@dataclass(frozen=True)
class Node:
    """One vertex of the signal flow graph."""

    id: int
    kind: str            # 'sig' | 'reg' | 'op' | 'const'
    label: str           # signal name / op name / literal repr
    payload: object = field(default=None, compare=False, hash=False)

    def __repr__(self):
        return "Node(%d, %s, %r)" % (self.id, self.kind, self.label)


class SFG:
    """A signal flow graph with convenience queries for the analyzer."""

    def __init__(self):
        self.g = DiGraph()
        self._next_id = 0
        self._by_key = {}
        self._sig_payloads = {}
        #: op node -> its operand nodes in position order (one entry per
        #: use, so ``x * x`` keeps both operands over one graph edge)
        self._operands = {}

    # -- construction -----------------------------------------------------

    @classmethod
    def from_tape(cls, tape):
        """The graph of a recorded
        :class:`~repro.signal.interval_tape.IntervalTape`, built from its
        distinct records in recording order: node ids follow the order
        in which the run first met each signal, literal and operation
        (see :func:`repro.sfg.build.trace`)."""
        g = cls()
        nodes = []

        def node(ref):
            if type(ref) is int:
                return nodes[ref]
            if type(ref) is tuple:
                return g.const_node(ref[0])
            return g.sig_node(ref.name, ref.is_register, payload=ref)

        for label, *refs in tape.distinct_records():
            ins = [node(r) for r in refs]
            nodes.append(g.op_node(label, ins) if label != ASSIGN
                         else g.assign_edge(ins[0], ins[1].label,
                                            ins[1].kind == "reg"))
        return g

    def _new_node(self, kind, label, key, payload=None):
        if key in self._by_key:
            return self._by_key[key]
        node = Node(self._next_id, kind, label, payload)
        self._next_id += 1
        self.g.add_node(node)
        self._by_key[key] = node
        return node

    def sig_node(self, name, is_register=False, payload=None):
        kind = "reg" if is_register else "sig"
        key = ("sig", name)
        if payload is not None:
            self._sig_payloads[name] = payload
        node = self._by_key.get(key)
        if node is not None:
            if node.kind != kind:
                raise DesignError("signal %r traced as both sig and reg"
                                  % name)
            return node
        return self._new_node(kind, name, key)

    def sig_payload(self, name):
        """Signal object attached to a traced signal node (or None)."""
        return self._sig_payloads.get(name)

    def const_node(self, value):
        return self._new_node("const", repr(float(value)),
                              ("const", float(value)), float(value))

    def op_node(self, opname, operand_nodes):
        """Structurally deduplicated operation node.

        Re-executing the same source expression on the same operand
        signals maps onto the same node, so the traced graph stays small
        no matter how many samples the trace covers.
        """
        key = ("op", opname, tuple(n.id for n in operand_nodes))
        node = self._by_key.get(key)
        if node is None:
            node = self._new_node("op", opname, key)
            self._operands[node] = tuple(operand_nodes)
            for src in operand_nodes:
                self.g.add_edge(src, node)
        return node

    def assign_edge(self, src_node, sig_name, is_register=False):
        dst = self.sig_node(sig_name, is_register)
        self.g.add_edge(src_node, dst)
        return dst

    # -- queries ---------------------------------------------------------------

    def nodes(self, kind=None):
        if kind is None:
            return list(self.g)
        return [n for n in self.g if n.kind == kind]

    def signal_nodes(self):
        return [n for n in self.g if n.kind in ("sig", "reg")]

    def signal_names(self):
        return [n.label for n in self.signal_nodes()]

    def node_for_signal(self, name):
        node = self._by_key.get(("sig", name))
        if node is None:
            raise DesignError("signal %r is not in the traced graph" % name)
        return node

    def preds(self, node):
        """An op's operands in position order, or a signal's drivers.

        A signal's drivers are the nodes assigned to it, in first
        assignment order.
        """
        operands = self._operands.get(node)
        if operands is not None:
            return list(operands)
        return list(self.g.pred[node])

    def succs(self, node):
        return list(self.g.succ[node])

    def in_degree(self, node):
        """Number of distinct nodes feeding ``node``."""
        return self.g.in_degree(node)

    def out_degree(self, node):
        """Number of distinct nodes ``node`` feeds."""
        return self.g.out_degree(node)

    def sources(self):
        """Signal nodes with no drivers (primary inputs / constants-only)."""
        return [n for n in self.signal_nodes()
                if self.g.in_degree(n) == 0]

    def cycles(self):
        """Elementary cycles of the graph, deterministic and deduplicated.

        Each cycle is a list of :class:`Node` in flow order, rotated so
        it starts at the structurally smallest node (ordered by
        ``(kind, label)``); the cycle list itself is sorted by those
        structural keys.  Node ids — which depend on trace order — never
        participate, so two traces of the same design yield the same
        cycle sets even when the source executed statements in a
        different order.  Cycles that are structurally identical
        (same node kind/label sequence) are reported once.
        """
        found = {}
        for cyc in simple_cycles(self.g):
            canon = self._canonical_cycle(cyc)
            key = tuple((n.kind, n.label) for n in canon)
            if key not in found:
                found[key] = canon
        return [found[k] for k in sorted(found)]

    @staticmethod
    def _canonical_cycle(nodes):
        """Rotate a cycle to its lexicographically smallest key sequence."""
        keys = [(n.kind, n.label) for n in nodes]
        best = None
        best_rot = 0
        for i in range(len(nodes)):
            rot = keys[i:] + keys[:i]
            if best is None or rot < best:
                best = rot
                best_rot = i
        return list(nodes[best_rot:]) + list(nodes[:best_rot])

    @staticmethod
    def cycle_signal_names(cycle):
        """Names of the ``sig``/``reg`` nodes on one cycle (flow order)."""
        return [n.label for n in cycle if n.kind in ("sig", "reg")]

    def feedback_signals(self):
        """Names of signals that sit on a cycle of the flow graph.

        Cycles always pass through a ``sig``/``reg`` node (expressions are
        trees); these are the candidates for MSB explosion and LSB
        divergence.
        """
        names = []
        for scc in strongly_connected_components(self.g):
            if len(scc) > 1:
                names.extend(n.label for n in scc
                             if n.kind in ("sig", "reg"))
            else:
                (n,) = scc
                if self.g.has_edge(n, n) and n.kind in ("sig", "reg"):
                    names.append(n.label)
        return sorted(set(names))

    @staticmethod
    def _structural_key(node):
        """Sort key independent of trace order up to the final id tiebreak.

        ``(kind, label)`` orders nodes structurally; the id only breaks
        ties between distinct nodes that share both (e.g. two ``add`` op
        nodes), where *some* stable tiebreak is required.
        """
        return (node.kind, node.label, node.id)

    def condensed_order(self):
        """Topological order of the acyclic condensation (cycle-safe).

        Components are emitted in condensation order; *within* a
        strongly connected component the feedback edges into ``reg``
        nodes (the legal cycle points) are cut, and the remaining
        combinational subgraph is scheduled by a lexicographic Kahn:
        among the ready nodes the one with the smallest structural
        ``(kind, label)`` key goes first — so op operands still precede
        their ops, and the result is stable across traces of the same
        design.  Nodes on a purely combinational cycle (a design error
        that downstream consumers diagnose) are appended in structural
        order.
        """
        order = []
        for members in condensed_components(self.g):
            if len(members) == 1:
                order.extend(members)
            else:
                order.extend(self._component_order(members))
        return order

    def _component_order(self, members):
        """Schedule one SCC: registers first, then combinational flow."""
        members = set(members)
        indegree = {}
        for n in members:
            if n.kind == "reg":
                indegree[n] = 0       # feedback in-edges cut: reg = source
            else:
                indegree[n] = sum(1 for p in self.g.pred[n]
                                  if p in members)
        heap = [self._structural_key(n) + (n,)
                for n in members if indegree[n] == 0]
        heapq.heapify(heap)
        out = []
        emitted = set()
        while heap:
            node = heapq.heappop(heap)[-1]
            emitted.add(node)
            out.append(node)
            for succ in self.g.succ[node]:
                if succ in members and succ.kind != "reg":
                    indegree[succ] -= 1
                    if indegree[succ] == 0:
                        heapq.heappush(heap,
                                       self._structural_key(succ) + (succ,))
        out.extend(sorted(members - emitted, key=self._structural_key))
        return out

    @property
    def n_nodes(self):
        return len(self.g)

    @property
    def n_edges(self):
        return self.g.number_of_edges()

    def __repr__(self):
        return "SFG(%d nodes, %d edges, %d signals)" % (
            self.n_nodes, self.n_edges, len(self.signal_nodes()))
