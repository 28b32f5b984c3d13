"""Minimum-weight perfect-matching decoder for matchable CSS codes.

The paper's perfect EC round uses lookup-table decoding, which scales as
``2^checks``. For codes whose error-to-check incidence is *matchable* —
every error (column of the check matrix) flips at most two checks, as in
the surface code and the bit-flip part of the Shor code — decoding
reduces to minimum-weight perfect matching on the check graph, the
textbook surface-code decoder. This module implements it on networkx:

* nodes: checks, plus one boundary node if any column has weight 1;
* edges: one per qubit, joining the (one or two) checks that see it;
* decode: complete graph over flagged checks (+ boundary copies) with
  shortest-path distances, ``max_weight_matching`` on negated weights,
  then the union of the shortest paths gives the correction.

Exactness: for matchable codes MWPM returns a *minimum-weight* error
consistent with the syndrome — the same guarantee as the lookup table,
verified against it in the tests.
"""

from __future__ import annotations

import itertools

import networkx as nx
import numpy as np

from ..pauli.symplectic import as_bit_matrix

__all__ = ["MatchingDecoder", "is_matchable"]

_BOUNDARY = "boundary"


def is_matchable(checks) -> bool:
    """True iff every column of ``checks`` has weight 1 or 2."""
    checks = as_bit_matrix(checks)
    weights = checks.sum(axis=0)
    return bool(((weights >= 1) & (weights <= 2)).all())


class MatchingDecoder:
    """MWPM decoder over a fixed matchable check matrix."""

    def __init__(self, checks):
        self.checks = as_bit_matrix(checks)
        self.m, self.n = self.checks.shape
        if not is_matchable(self.checks):
            raise ValueError(
                "check matrix is not matchable (a column has weight > 2 "
                "or 0); use LookupDecoder"
            )
        self.graph = nx.MultiGraph()
        self.graph.add_nodes_from(range(self.m))
        self._has_boundary = False
        for qubit in range(self.n):
            rows = np.nonzero(self.checks[:, qubit])[0]
            if len(rows) == 2:
                self.graph.add_edge(int(rows[0]), int(rows[1]), qubit=qubit)
            else:
                self._has_boundary = True
                self.graph.add_edge(int(rows[0]), _BOUNDARY, qubit=qubit)
        # All-pairs shortest paths by edge count (uniform weights).
        self._distance = dict(nx.all_pairs_shortest_path_length(self.graph))
        self._paths = dict(nx.all_pairs_shortest_path(self.graph))
        # The check graph may be disconnected (e.g. the Shor code's
        # repetition blocks); decoding proceeds per component.
        self._component_of: dict = {}
        for index, component in enumerate(nx.connected_components(self.graph)):
            for node in component:
                self._component_of[node] = index
        # Syndrome -> correction memo. Matching is by far the most
        # expensive decode step; this cache amortizes it across per-shot
        # calls (batched judging memoizes in LogicalJudge).
        self._decode_cache: dict[bytes, np.ndarray] = {}

    # -- api -----------------------------------------------------------------

    def syndrome(self, error) -> np.ndarray:
        error = np.asarray(error, dtype=np.uint8)
        return (self.checks @ error % 2).astype(np.uint8)

    def decode(self, syndrome) -> np.ndarray:
        """A minimum-weight error consistent with ``syndrome``."""
        syndrome = np.asarray(syndrome, dtype=np.uint8)
        key = syndrome.tobytes()
        cached = self._decode_cache.get(key)
        if cached is not None:
            return cached.copy()
        flagged = [int(i) for i in np.nonzero(syndrome)[0]]
        correction = np.zeros(self.n, dtype=np.uint8)
        if flagged:
            # Decode each connected component of the check graph on its
            # own — no error can connect checks in different components.
            groups: dict[int, list[int]] = {}
            for check in flagged:
                groups.setdefault(self._component_of[check], []).append(check)
            for component, members in sorted(groups.items()):
                correction ^= self._decode_component(members)
            if (self.syndrome(correction) != syndrome).any():
                raise AssertionError("matching produced wrong syndrome")
        self._decode_cache[key] = correction
        return correction.copy()

    def _decode_component(self, flagged: list[int]) -> np.ndarray:
        has_boundary = _BOUNDARY in self._distance[flagged[0]]
        if len(flagged) % 2 == 1 and not has_boundary:
            raise ValueError(
                "odd syndrome in a boundaryless component: undecodable"
            )
        if len(flagged) == 1:
            return self._path_support(self._paths[flagged[0]][_BOUNDARY])

        # Matching graph: flagged checks pairwise, plus one private
        # boundary copy per flagged check (pairing with the boundary).
        matching_graph = nx.Graph()
        for a, b in itertools.combinations(flagged, 2):
            matching_graph.add_edge(
                ("check", a), ("check", b), weight=-self._distance[a][b]
            )
        if has_boundary:
            for a in flagged:
                matching_graph.add_edge(
                    ("check", a),
                    ("bnd", a),
                    weight=-self._distance[a][_BOUNDARY],
                )
            # Boundary copies pair with each other for free.
            for a, b in itertools.combinations(flagged, 2):
                matching_graph.add_edge(("bnd", a), ("bnd", b), weight=0)

        matching = nx.max_weight_matching(matching_graph, maxcardinality=True)
        correction = np.zeros(self.n, dtype=np.uint8)
        for u, v in matching:
            if u[0] == "bnd" and v[0] == "bnd":
                continue  # two boundary copies paired: no correction
            if u[0] == "check" and v[0] == "check":
                path = self._paths[u[1]][v[1]]
            else:
                check = u[1] if u[0] == "check" else v[1]
                path = self._paths[check][_BOUNDARY]
            correction ^= self._path_support(path)
        return correction

    def correct(self, error) -> np.ndarray:
        error = np.asarray(error, dtype=np.uint8)
        return error ^ self.decode(self.syndrome(error))

    # -- internals -------------------------------------------------------------

    def _path_support(self, path) -> np.ndarray:
        support = np.zeros(self.n, dtype=np.uint8)
        for a, b in zip(path, path[1:]):
            # One representative qubit per graph step (min key on multi-edge).
            data = self.graph.get_edge_data(a, b)
            qubit = data[min(data)]["qubit"]
            support[qubit] ^= 1
        return support
