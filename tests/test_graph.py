"""Knowledge graph assembly and class hierarchy traversal."""

from __future__ import annotations

import pytest

from kgtyper.errors import DataError
from kgtyper.graph import (
    DEFAULT_ROOTS,
    ClassHierarchy,
    HierarchyCycleError,
    KnowledgeGraph,
    UnknownClassError,
    build_hierarchy,
)
from kgtyper.ntriples import parse_ntriples

from conftest import AGENT, COMPANY, LAWFIRM, ORGANISATION, OWL_THING, PERSON


def test_type_assertions_collected(lawfirm_kg):
    assert lawfirm_kg.type_assertions["http://dbpedia.org/resource/Baker_McKenzie"] == {
        LAWFIRM
    }


def test_subclass_edges_ordered_and_deduplicated():
    lines = [
        f"<{LAWFIRM}> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <{COMPANY}> .",
        f"<{LAWFIRM}> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <{COMPANY}> .",
        f"<{COMPANY}> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <{ORGANISATION}> .",
    ]
    kg = KnowledgeGraph.from_triples(parse_ntriples(lines))
    assert kg.subclass_edges == [(LAWFIRM, COMPANY), (COMPANY, ORGANISATION)]


def test_classes_include_hierarchy_and_type_objects(lawfirm_kg):
    assert {LAWFIRM, COMPANY, ORGANISATION, AGENT, PERSON} <= lawfirm_kg.classes()


class TestHierarchy:
    def test_worked_example_parent_chain(self, lawfirm_hierarchy):
        h = lawfirm_hierarchy
        assert h.parent[LAWFIRM] == COMPANY
        assert h.parent[COMPANY] == ORGANISATION
        assert h.parent[ORGANISATION] == AGENT

    def test_coarse_ancestor_stops_before_root(self, lawfirm_hierarchy):
        # Chain LawFirm -> Company -> Organisation -> Agent with Agent a root:
        # the coarse ancestor is the last class before the root.
        assert lawfirm_hierarchy.coarse_ancestor(LAWFIRM) == ORGANISATION

    def test_coarse_ancestor_of_root_child_is_itself(self, lawfirm_hierarchy):
        assert lawfirm_hierarchy.coarse_ancestor(ORGANISATION) == ORGANISATION
        assert lawfirm_hierarchy.coarse_ancestor(PERSON) == PERSON

    def test_coarse_ancestor_unknown_class(self, lawfirm_hierarchy):
        with pytest.raises(UnknownClassError):
            lawfirm_hierarchy.coarse_ancestor("http://example.org/Nope")

    def test_descendants(self, lawfirm_hierarchy):
        assert lawfirm_hierarchy.descendants(ORGANISATION) == {COMPANY, LAWFIRM}
        assert lawfirm_hierarchy.descendants(LAWFIRM) == set()

    def test_descendants_unknown_class(self, lawfirm_hierarchy):
        with pytest.raises(UnknownClassError):
            lawfirm_hierarchy.descendants("http://example.org/Nope")

    def test_roots_always_include_owl_thing(self, lawfirm_hierarchy):
        assert OWL_THING in lawfirm_hierarchy.roots
        assert AGENT in lawfirm_hierarchy.roots

    def test_orphan_class_attached_under_owl_thing(self):
        lines = [
            "<http://e> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://C> .",
        ]
        kg = KnowledgeGraph.from_triples(parse_ntriples(lines))
        h = build_hierarchy(kg)
        assert h.parent["http://C"] == OWL_THING
        assert h.coarse_ancestor("http://C") == "http://C"

    def test_multiple_parents_first_in_file_order_wins(self):
        lines = [
            "<http://A> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://B> .",
            "<http://A> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://C> .",
        ]
        kg = KnowledgeGraph.from_triples(parse_ntriples(lines))
        h = build_hierarchy(kg)
        assert h.parent["http://A"] == "http://B"
        assert h.dropped_parent_edges == 1

    def test_cycle_raises_with_members(self):
        lines = [
            "<http://A> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://B> .",
            "<http://B> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://A> .",
        ]
        kg = KnowledgeGraph.from_triples(parse_ntriples(lines))
        with pytest.raises(HierarchyCycleError) as excinfo:
            build_hierarchy(kg)
        assert "http://A" in str(excinfo.value) and "http://B" in str(excinfo.value)

    def test_roots_never_get_parents(self):
        lines = [
            f"<{AGENT}> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <{OWL_THING}> .",
        ]
        kg = KnowledgeGraph.from_triples(parse_ntriples(lines))
        h = build_hierarchy(kg)
        assert AGENT not in h.parent

    def test_depth(self, lawfirm_hierarchy):
        assert lawfirm_hierarchy.depth(ORGANISATION) == 1
        assert lawfirm_hierarchy.depth(COMPANY) == 2
        assert lawfirm_hierarchy.depth(LAWFIRM) == 3

    def test_every_class_reaches_root_and_closure_consistency(self, lawfirm_hierarchy):
        h = lawfirm_hierarchy
        for c in h.classes():
            if c in h.roots:
                continue
            coarse = h.coarse_ancestor(c)
            assert h.parent[coarse] in h.roots
            assert c == coarse or c in h.descendants(coarse)

    def test_descendants_consistent_with_parent_chain(self, lawfirm_hierarchy):
        h = lawfirm_hierarchy
        for c in h.classes():
            for d in h.descendants(c):
                cursor = d
                seen = False
                while cursor is not None:
                    cursor = h.parent.get(cursor)
                    if cursor == c:
                        seen = True
                        break
                assert seen, f"{d} not upward-connected to {c}"


def test_default_roots_are_thing_and_agent():
    assert DEFAULT_ROOTS == frozenset({OWL_THING, AGENT})


def test_children_is_inverse_of_parent_and_orphans_attach_to_thing():
    h = ClassHierarchy(parent={"http://A": "http://B"}, roots=frozenset({OWL_THING}))
    assert h.children["http://B"] == ["http://A"]
    # B has no declared parent: implicitly a child of owl:Thing.
    assert "http://B" not in h.parent
    assert h.depth("http://B") == 1 and h.depth("http://A") == 2
