"""In-memory knowledge graph and subclass hierarchy.

The graph keeps the raw triples plus two projections that the typing
pipeline needs: ``rdf:type`` assertions per entity and the ordered
``rdfs:subClassOf`` edge list. The hierarchy reduces those edges to a
single-parent tree so that the upward traversal used for coarse-type
lookup is deterministic.

All graph-level APIs work on plain IRI strings (the stored form, without
angle brackets); :class:`~kgtyper.ntriples.Triple` objects are only kept
for serialization fidelity.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import DataError
from .ntriples import DBO_AGENT, OWL_THING, RDF_TYPE, RDFS_SUBCLASSOF, Triple

logger = logging.getLogger(__name__)

DEFAULT_ROOTS = frozenset({OWL_THING, DBO_AGENT})


class UnknownClassError(DataError):
    """Lookup of a class that is not part of the hierarchy."""

    def __init__(self, class_iri: str):
        super().__init__(f"unknown class: {class_iri}")
        self.class_iri = class_iri


class HierarchyCycleError(DataError):
    """The subclass edges contain a cycle; lists one cycle's members."""

    def __init__(self, members: list[str]):
        super().__init__("subclass cycle detected: " + " -> ".join(members))
        self.members = members


@dataclass
class KnowledgeGraph:
    """Triples plus the type/subclass projections used downstream."""

    triples: list[Triple] = field(default_factory=list)
    type_assertions: dict[str, set[str]] = field(default_factory=dict)
    subclass_edges: list[tuple[str, str]] = field(default_factory=list)

    @classmethod
    def from_triples(cls, triples: Iterable[Triple]) -> "KnowledgeGraph":
        kg = cls()
        seen_edges: set[tuple[str, str]] = set()
        for triple in triples:
            kg.triples.append(triple)
            if not triple.object_is_iri:
                continue
            subject = triple.subject.value
            obj = triple.object.value
            if triple.predicate.value == RDF_TYPE:
                kg.type_assertions.setdefault(subject, set()).add(obj)
            elif triple.predicate.value == RDFS_SUBCLASSOF:
                edge = (subject, obj)
                if edge not in seen_edges:
                    seen_edges.add(edge)
                    kg.subclass_edges.append(edge)
        return kg

    @property
    def num_triples(self) -> int:
        return len(self.triples)

    def classes(self) -> set[str]:
        """All class IRIs mentioned in type assertions or subclass edges."""
        out: set[str] = set()
        for types in self.type_assertions.values():
            out.update(types)
        for child, parent in self.subclass_edges:
            out.add(child)
            out.add(parent)
        return out


class ClassHierarchy:
    """Single-parent subclass tree with designated traversal-stop roots.

    ``parent`` never has entries for roots; every other known class reaches
    a root by iterating ``parent``. ``owl:Thing`` is always treated as a
    root so that orphan classes have somewhere to attach.
    """

    def __init__(self, parent: Mapping[str, str], roots: Iterable[str]):
        self.roots = frozenset(roots) | {OWL_THING}
        self.parent: dict[str, str] = {
            c: p for c, p in parent.items() if c not in self.roots
        }
        self.children: dict[str, list[str]] = {}
        for child in sorted(self.parent):
            self.children.setdefault(self.parent[child], []).append(child)
        self._known = set(self.parent) | set(self.children) | self.roots
        self.dropped_parent_edges = 0
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        done: set[str] = set(self.roots)
        for start in self.parent:
            if start in done:
                continue
            path: list[str] = []
            on_path: set[str] = set()
            node = start
            while node not in done:
                if node in on_path:
                    cycle = path[path.index(node) :]
                    raise HierarchyCycleError(cycle)
                on_path.add(node)
                path.append(node)
                node = self.parent.get(node, OWL_THING)
            done.update(path)

    def __contains__(self, class_iri: str) -> bool:
        return class_iri in self._known

    def classes(self) -> set[str]:
        return set(self._known)

    def _require(self, class_iri: str) -> None:
        if class_iri not in self._known:
            raise UnknownClassError(class_iri)

    def depth(self, class_iri: str) -> int:
        """Number of parent steps to the nearest root (roots have depth 0)."""
        self._require(class_iri)
        steps = 0
        node = class_iri
        while node not in self.roots:
            node = self.parent.get(node, OWL_THING)
            steps += 1
        return steps

    def coarse_ancestor(self, class_iri: str) -> str:
        """Last class on the upward chain before a root is reached.

        A class that is itself a direct child of a root is its own coarse
        ancestor; roots degenerate to themselves.
        """
        self._require(class_iri)
        if class_iri in self.roots:
            return class_iri
        node = class_iri
        while True:
            parent = self.parent.get(node, OWL_THING)
            if parent in self.roots:
                return node
            node = parent

    def descendants(self, class_iri: str) -> set[str]:
        """All classes reachable downward via children."""
        self._require(class_iri)
        out: set[str] = set()
        queue = deque(self.children.get(class_iri, ()))
        while queue:
            node = queue.popleft()
            if node in out:
                continue
            out.add(node)
            queue.extend(self.children.get(node, ()))
        return out


def build_hierarchy(
    kg: KnowledgeGraph, roots: Iterable[str] = DEFAULT_ROOTS
) -> ClassHierarchy:
    """Build the single-parent hierarchy from a graph's subclass edges.

    When a class declares several parents, the first edge in file order
    wins and the rest are logged. Classes appearing only in type
    assertions, or with no declared parent, are attached under
    ``owl:Thing``. Roots never receive a parent.
    """
    roots = frozenset(roots) | {OWL_THING}
    parent: dict[str, str] = {}
    dropped = 0
    for child, declared_parent in kg.subclass_edges:
        if child in roots:
            continue
        if child in parent:
            dropped += 1
            logger.warning(
                "class %s already has parent %s; dropping extra parent %s",
                child,
                parent[child],
                declared_parent,
            )
            continue
        parent[child] = declared_parent
    for class_iri in kg.classes():
        if class_iri not in parent and class_iri not in roots:
            parent[class_iri] = OWL_THING
    hierarchy = ClassHierarchy(parent, roots)
    hierarchy.dropped_parent_edges = dropped
    return hierarchy
