import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "synchro"

# public API kept for library users although no library code calls it;
# perfbench's invariant check reads StateSet.full until the benchmark stops
# naming StateSet (ROADMAP item 2)
KEPT_API = {"Dfa.letter_index", "StateSet.full", "ExtensibilityProfile.alpha"}


def _references(node, skip=()):
    """Names used in a subtree, not looking inside the nodes in skip: plain
    names and import aliases as themselves, attribute names also with a
    leading dot, which alone can reach a method."""
    refs = Counter()
    stack = [node]
    while stack:
        sub = stack.pop()
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
            refs["." + sub.attr] += 1
        elif isinstance(sub, ast.alias):
            refs[sub.name.rsplit(".", 1)[-1]] += 1
        stack.extend(c for c in ast.iter_child_nodes(sub) if c not in skip)
    return refs


def _definitions(tree):
    """(qualified name, node, owning class) for top-level functions and classes
    and for the methods of top-level classes, dunder methods left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node, None
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if (isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (sub.name.startswith("__") and sub.name.endswith("__"))):
                    yield f"{node.name}.{sub.name}", sub, node.name


def test_every_library_name_has_a_library_caller():
    # A definition is live when module-level code or a live definition names
    # it, so a helper only other dead helpers call is dead too, and a
    # function calling itself does not keep itself alive. A method is named
    # only by an attribute reference: a bare local of the same name does not
    # keep it alive.
    defs, own, live_refs = {}, {}, Counter()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found = list(_definitions(tree))
        for qualname, node, owner in found:
            defs[qualname] = (node, owner)
            methods = {m for _, m, o in found if o == node.name} if owner is None else ()
            own[qualname] = _references(node, skip=methods)
        live_refs += _references(tree, skip={node for _, node, owner in found if owner is None})
    live = set()
    grew = True
    while grew:
        grew = False
        for qualname, (node, owner) in defs.items():
            if qualname in live or (owner is not None and owner not in live):
                continue
            key = node.name if owner is None else "." + node.name
            if live_refs[key] or qualname in KEPT_API:
                live.add(qualname)
                live_refs += own[qualname]
                grew = True
    assert sorted(set(defs) - live) == []


def test_every_kept_name_is_defined():
    # an entry whose definition was deleted would otherwise linger unnoticed
    names = set()
    for path in sorted(SRC.glob("*.py")):
        names.update(qualname for qualname, _, _ in _definitions(ast.parse(path.read_text())))
    assert sorted(KEPT_API - names) == []


def test_only_core_names_the_state_set_type():
    # every library search and check moves int masks; StateSet is core's
    # boundary type for outside readers, exported by the package
    named = [path.name for path in sorted(SRC.glob("*.py"))
             if _references(ast.parse(path.read_text()))["StateSet"]]
    assert named == ["__init__.py", "core.py"]


def test_no_engine_function_calls_a_capped_solver():
    # A function that checks the subset cap is a front door for callers
    # outside the engine. Inside it, call its kernel: going through the door
    # would inherit its cap on the state count and repeat its checks.
    tree = ast.parse((SRC / "engine.py").read_text())
    funcs = {node.name: _references(node) for node in tree.body
             if isinstance(node, ast.FunctionDef)}
    capped = {name for name, refs in funcs.items() if refs["_check_subset_cap"]}
    assert capped
    calls = {name: sorted(c for c in capped - {name} if refs[c]) for name, refs in funcs.items()}
    assert {name: found for name, found in calls.items() if found} == {}


def test_engine_steps_masks_through_chunk_tables():
    # every engine search and solver moves a mask by core's chunk tables
    # (union_mask), never by the per-bit image or preimage step
    refs = _references(ast.parse((SRC / "engine.py").read_text()))
    assert [name for name in ("image_mask", "preimage_mask") if refs[name]] == []


def test_harness_calls_the_threshold_kernel():
    # the harness hands only decided automata (filtered census classes,
    # sampler draws, families synchronizing by construction) to the exact
    # search, so it calls the kernel, not the front door, and never asks the
    # kernel for the door's pair test
    tree = ast.parse((SRC / "harness.py").read_text())
    refs = _references(tree)
    assert refs["_meet_search"] and not refs["exact_reset_threshold"]
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and node.func.attr == "_meet_search"]
    assert calls and all(len(call.args) == 1 and not call.keywords for call in calls)
    assert not refs["pair_test_after"]
