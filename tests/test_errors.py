"""The errors that carry a vertex or a witness keep it as an attribute and
print the same default text as when each class had its own constructor."""

import pytest

from intdigraph.errors import (ForbiddenStructure, NotCocompOrdered, NotDufOrdered,
                               NotIrreflexive, NotReflexive)
from intdigraph.ordering import StructureWitness

WITNESS = StructureWitness("duf-out", (0, 1, 1, 2), (0, 1, 1, 2))


@pytest.mark.parametrize("error,item,text", [
    (NotReflexive, 3, "vertex 3 is not reflexive"),
    (NotIrreflexive, 3, "vertex 3 has a self-loop"),
    (ForbiddenStructure, WITNESS, f"forbidden structure: {WITNESS}"),
    (NotDufOrdered, WITNESS, f"not a DUF-ordering: {WITNESS}"),
    (NotCocompOrdered, (0, 1, 2), "not a cocomparability ordering: (0, 1, 2)"),
])
def test_default_and_given_messages(error, item, text):
    attr = "vertex" if error in (NotReflexive, NotIrreflexive) else "witness"
    exc = error(item)
    assert isinstance(exc, ValueError) and getattr(exc, attr) == item
    assert str(exc) == text and exc.args == (text,)
    given = error(item, "own text")
    assert str(given) == "own text" and getattr(given, attr) == item
