"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "voroseg"


def test_no_assert_statements_in_package():
    # `python -O` strips asserts, so library invariants must raise typed errors
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no package sources under {SRC}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_cli_never_exits_with_a_message():
    # SystemExit("...") and sys.exit("...") print the text and exit 1, the code
    # `check` keeps for a violated invariant; bad input goes through _input_error
    tree = ast.parse((SRC / "cli.py").read_text())
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func) in ("SystemExit", "sys.exit")
        and node.args
        and (
            isinstance(node.args[0], ast.JoinedStr)
            or isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str)
        )
    ]
    assert not found, found


def test_one_json_writer():
    # the stdlib renders `indent` in pure Python; every document goes through
    # jsonio._render, which hands json.dumps only a scalar or an empty container
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in ("json", "json.encoder"):
                found += [(path.name, alias.name) for alias in node.names if alias.name in ("dump", "dumps")]
            if isinstance(node, ast.Call) and ast.unparse(node.func) in ("json.dump", "json.dumps"):
                fn = node
                while not isinstance(fn, (ast.FunctionDef, ast.Module)):
                    fn = parents[fn]
                found.append((path.name, getattr(fn, "name", "<module>")))
    assert found == [("jsonio.py", "_render")], found


def test_every_public_name_has_a_caller_in_the_package():
    # loads, not text: a text search would take the report field rep.in_dual_set for a call
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    loaded = {node.id for node in nodes if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    loaded |= {f"{n.value.id}.{n.attr}" for n in nodes if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)}
    # what voroseg/__init__ imports is the public API
    loaded |= {alias.name for node in trees["__init__"].body if isinstance(node, ast.ImportFrom) for alias in node.names}
    found = {
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not {node.name, f"{module}.{node.name}"} & loaded
    }
    # bench/tracer.py counts the calls of these three, so they stay until the bench drops them
    assert sorted(found - {"linalg.dot", "linalg.solve_linear", "linalg.rank"}) == []


def test_every_name_a_test_module_imports_is_read():
    # an import that nothing reads hides which oracles and package names a module uses
    found = []
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {
            (alias.asname or alias.name).split(".")[0]: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        found += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]
    assert not found, found


def test_only_lattice_reads_the_dimension_cap():
    # catalog, make_form and coset_minima refuse d > DEFAULT_DIM_CAP; a command that checked
    # the cap itself would be a second copy of the rule, free to drift from the first
    found = []
    for path in sorted(set(SRC.glob("*.py")) - {SRC / "lattice.py"}):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            # a Name's id, an Attribute's attr, an import alias's name
            names = {getattr(node, field, None) for field in ("id", "attr", "name")}
            found += [(path.name, name) for name in sorted(names & {"DEFAULT_DIM_CAP", "check_dim_cap", "_check_dim_cap"})]
    assert not found, found
