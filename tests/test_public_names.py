"""Every public function, class, method and property of ``trackfuse`` is used by the package.

A name that only tests call is a second implementation to keep in step with
the code that runs, so it is either used in ``src/``, exported in
``__all__``, or listed in ``KEPT`` with the reason it stays.  A public
class's methods and properties count as used when ``src/`` reads them as an
attribute; ``KEPT`` names them ``Class.member``.  The AST cannot tell which
class an attribute read is on, so a method or property whose name another
public class also defines is listed in ``SHARED`` with the ``src/``
functions that read it on its own class.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "trackfuse"

KEPT = {
    "read_tracks": "the benchmark reads the track CSV back with it",
}

SHARED = {}  # Class.member: the functions that read it on that class ("module.qualname")


def _public_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name


def _public_members(tree: ast.Module):
    """``Class.member`` for each public method or property of each public class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}"


def _class_names(tree: ast.Module):
    """``(class, name)`` for each public member or field of each public class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for member in node.body:
                targets = (member.targets if isinstance(member, ast.Assign) else
                           [member.target] if isinstance(member, ast.AnnAssign) else [member])
                for target in targets:
                    name = getattr(target, "id", getattr(target, "name", None))
                    if name and not name.startswith("_"):
                        yield node.name, name


def _definition(trees, site: str):
    """The ``def`` that ``module.qualname`` names, or None."""
    module, *path = site.split(".")
    nodes = trees[module].body if module in trees else []
    node = None
    for part in path:
        node = next((n for n in nodes if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                     and n.name == part), None)
        nodes = node.body if node else []
    return node if isinstance(node, ast.FunctionDef) else None


def _modules_imported(tree: ast.Module):
    """The names that ``import X`` or ``import X as Y`` binds in ``tree``."""
    return {(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
            if isinstance(node, ast.Import) for alias in node.names}


def _attributes_read(tree: ast.AST, modules=None):
    """Attributes that ``tree`` reads, except on a module that ``modules`` (by default those
    ``tree`` imports) names: ``np.concat`` calls numpy and reads no member ``concat``."""
    modules = _modules_imported(tree) if modules is None else modules
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and not (
                isinstance(node.value, ast.Name) and node.value.id in modules):
            yield node.attr


def _references(tree: ast.Module):
    """Every name the module loads, reads as an attribute, imports or lists in ``__all__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            yield from (elt.value for elt in node.value.elts)


def test_every_public_definition_is_used_or_kept_for_a_reason():
    trees = [ast.parse(path.read_text()) for path in SRC.glob("*.py")]
    used = {name for tree in trees for name in _references(tree)}
    defined = {name for tree in trees for name in _public_definitions(tree)}
    unused = sorted(defined - used - set(KEPT))
    assert not unused, f"defined in src/ but used only outside it: {unused}"
    stale = sorted({name for name in KEPT if "." not in name} - (defined - used))
    assert not stale, f"KEPT lists names src/ uses itself or no longer defines: {stale}"


def _unread_members(trees, kept=frozenset()):
    """``Class.member`` of each public member that no tree reads and ``kept`` does not list."""
    read = {name for tree in trees for name in _attributes_read(tree)}
    members = {name for tree in trees for name in _public_members(tree)}
    return sorted(m for m in members - kept if m.split(".")[1] not in read)


def test_every_public_member_is_read_or_kept_for_a_reason():
    trees = [ast.parse(path.read_text()) for path in SRC.glob("*.py")]
    read = {name for tree in trees for name in _attributes_read(tree)}
    members = {name for tree in trees for name in _public_members(tree)}
    kept = {name for name in KEPT if "." in name}
    unread = _unread_members(trees, kept)
    assert not unread, f"defined in src/ but read only outside it: {unread}"
    stale = sorted(m for m in kept if m not in members or m.split(".")[1] in read)
    assert not stale, f"KEPT lists members src/ reads itself or no longer defines: {stale}"


def test_every_shared_member_names_where_src_reads_it():
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    owners = {}
    for tree in trees.values():
        for cls, name in _class_names(tree):
            owners.setdefault(name, set()).add(cls)
    members = {name for tree in trees.values() for name in _public_members(tree)}
    shared = {m for m in members if len(owners[m.split(".")[1]]) > 1}
    unlisted = sorted(shared - set(SHARED))
    assert not unlisted, f"members another public class also defines, not in SHARED: {unlisted}"
    stale = sorted(m for m, sites in SHARED.items() if m not in shared or not all(
        (node := _definition(trees, site)) and m.split(".")[1] in _attributes_read(
            node, _modules_imported(trees[site.split(".")[0]])) for site in sites))
    assert not stale, f"SHARED lists members no longer shared or not read at its sites: {stale}"


def test_a_module_call_reads_no_member():
    source = ("import numpy as np\n"
              "class Columns:\n    def concat(self):\n        pass\n"
              "def join(parts):\n    return np.concat(parts)\n")
    assert _unread_members([ast.parse(source)]) == ["Columns.concat"]
    assert _unread_members([ast.parse(source.replace("np.concat", "parts.concat"))]) == []
