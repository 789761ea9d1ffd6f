"""The public surface of ``src/gotas`` is what its users reach.

Every public function and method must be read by code (not named in a
string) in ``src/``, ``scripts/`` or ``perfbench/``, be named in the
README's code or in ``gotas.__all__``, or be on ``ALLOWED`` with a reason.
A member that only the tests read belongs in the tests. A method counts as
read where some code reads an attribute of its name, or its own class body
reads the name (``__or__ = union``); a class method, only where code reads
it through its class (``Batch.powerset``, or ``cls.powerset`` inside
``Batch``); a function, where code reads or imports its name.
"""

import ast
import re

import gotas

from conftest import REPO_ROOT

SRC = REPO_ROOT / "src" / "gotas"
USERS = (SRC, REPO_ROOT / "scripts", REPO_ROOT / "perfbench")

# Public members that no user reaches, each with the reason it stays.
ALLOWED = {
    "Universe.empty": "the empty subset, beside Universe.full and Universe.subset",
    "Batch.of": "the batch of given rows, the inverse of Batch.rows; the tests build batches so",
    "PartialOrder.is_increasing": "the tests' reference for the monotone sets the kernel encodes",
    "PartialOrder.is_decreasing": "the tests' reference for the monotone sets the kernel encodes",
}


def _trees(roots):
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _read_names():
    """The attribute names, the (owner, attribute) pairs and the plain names
    that code in ``USERS`` reads or imports. The owner of ``x.name`` and of
    ``y.x.name`` is ``x``; inside class C, the owner of ``cls.name`` is C."""
    attributes, owned, names = set(), set(), set()
    for _, tree in _trees(USERS):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                if isinstance(node.value, ast.Name):
                    owned.add((node.value.id, node.attr))
                elif isinstance(node.value, ast.Attribute):
                    owned.add((node.value.attr, node.attr))
            elif isinstance(node, ast.ClassDef):
                owned |= {(node.name, n.attr) for n in ast.walk(node)
                          if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                          and n.value.id == "cls"}
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return attributes, owned, names


def _readme_names():
    """The identifiers in the README's inline code and Python blocks."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    fences = re.findall(r"^```(\w*)\n(.*?)^```$", readme, re.S | re.M)
    prose = re.sub(r"^```.*?^```$", "", readme, flags=re.S | re.M)
    code = [block for lang, block in fences if lang == "python"]
    return {name for text in code + re.findall(r"`([^`\n]+)`", prose)
            for name in re.findall(r"\w+", text)}


def _unreached():
    """The qualified names of the public functions and methods of
    ``src/gotas`` that nothing but the tests reaches."""
    attributes, owned, names = _read_names()
    named = _readme_names() | set(gotas.__all__)
    unreached = []
    for path, tree in _trees([SRC]):
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                if node.name not in attributes | names | named:
                    unreached.append(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                own = {n.id for stmt in node.body if not isinstance(stmt, ast.FunctionDef)
                       for n in ast.walk(stmt) if isinstance(n, ast.Name)}
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef) or item.name.startswith("_"):
                        continue
                    if any(isinstance(d, ast.Name) and d.id == "classmethod"
                           for d in item.decorator_list):
                        reached = (node.name, item.name) in owned
                    else:
                        reached = item.name in attributes | own | named
                    if not reached:
                        unreached.append(f"{node.name}.{item.name}")
    return unreached


def test_every_public_member_has_a_user_or_a_reason():
    unreached = _unreached()
    assert sorted(set(unreached) - set(ALLOWED)) == []
    # An entry whose member gained a user leaves the list.
    assert sorted(set(ALLOWED) - set(unreached)) == []
