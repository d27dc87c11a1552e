"""Shortcuts for building the shipped example structures in tests, and
expressions that more than one test module uses."""

from atomiso.fixtures import fixture_documents
from atomiso.structures import function_from_dict, structure_from_dict


def kneser_pair():
    docs = fixture_documents("kneser")
    return structure_from_dict(docs["a"]), structure_from_dict(docs["b"])


def nondefiso_pair():
    docs = fixture_documents("nondefiso")
    return structure_from_dict(docs["a"]), structure_from_dict(docs["b"])


def circle_pair():
    docs = fixture_documents("circle")
    return structure_from_dict(docs["a"]), structure_from_dict(docs["b"])


def neighborhoods_pair():
    docs = fixture_documents("neighborhoods")
    return structure_from_dict(docs["a"]), structure_from_dict(docs["b"])


def smoothing_parts():
    docs = fixture_documents("smoothing")
    st = structure_from_dict(docs["a"])
    _, fn = function_from_dict(docs["map"])
    return st, fn


# a cyclic set whose eliminations used to build DNF products about 13 times
# larger than their minimal literal sets; its least support took minutes
NESTED_CYCLIC = (
    "{((0, -9), (-9, 0, -9))} + {{(g92, g92) | g92 in atoms, not R(g14, -9, g92) "
    "and not R(g62, g14, -9) and R(g14, -9, 0)} | g14, g62 in atoms, g14 = g14 and g62 = g62}"
)

# a cyclic set whose orbit decomposition compiled the representative's
# equality afresh for every kept orbit of its clause; it has 12 orbits
NESTED_CYCLIC_ORBITS = (
    "{({g53 | g53 in atoms, not R(32, g53, g22) or R(-5, g22, g39) or R(g39, g53, 32)}, g39) "
    "| g39, g22 in atoms, g39 != g22}"
)
