"""Code lines and options per module under src/cmclab.

    python3 tools/code_lines.py [SRC_DIR]
    python3 tools/code_lines.py OLD_SRC_DIR NEW_SRC_DIR

With two source directories (say a parent checkout's src/cmclab and this
one's) it prints both trees' counts per module and the new-minus-old
differences; a module missing from one tree counts zero there.

A line counts when a token other than a comment or a line break lies on
it and it is not part of a module, class or function docstring.  An
option is a defaulted parameter of a public function or method, or a
defaulted public field of a public dataclass: each is a value a caller
can set independently.
"""

import ast
import io
import pathlib
import sys
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cmclab"
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            lines -= set(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


def _public(name: str) -> bool:
    return not name.startswith("_")


def _is_dataclass(node: ast.ClassDef) -> bool:
    # @dataclass or @dataclass(...)
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in node.decorator_list)


def option_count(text: str) -> int:
    module = ast.parse(text)
    classes = [node for node in module.body if isinstance(node, ast.ClassDef) and _public(node.name)]
    count = 0
    for scope in [module, *classes]:
        for node in scope.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _public(node.name):
                count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
            elif (scope is not module and _is_dataclass(scope) and isinstance(node, ast.AnnAssign)
                  and node.value is not None and _public(node.target.id)):
                count += 1
    return count


def tree_counts(src: pathlib.Path) -> dict:
    """(code lines, options) of each module in src, by file name."""
    texts = {path.name: path.read_text() for path in sorted(src.glob("*.py"))}
    return {name: (code_lines(text), option_count(text)) for name, text in texts.items()}


def _cells(pair, sign="") -> str:
    return f"{pair[0]:{sign}6d}  {pair[1]:{sign}7d}"


if __name__ == "__main__":
    trees = [tree_counts(pathlib.Path(arg)) for arg in sys.argv[1:]] or [tree_counts(SRC)]
    names = sorted(set().union(*trees))
    total = [tuple(sum(c.get(n, (0, 0))[i] for n in names) for i in (0, 1)) for c in trees]
    rows = [([c.get(n, (0, 0)) for c in trees], n) for n in names] + [(total, "total")]
    if len(trees) == 1:
        print(" lines  options  module")
    else:
        print(" lines  options   lines  options   lines  options  module")
        print("   old tree         new tree       new - old")
    for pairs, name in rows:
        diff = [_cells((b[0] - a[0], b[1] - a[1]), "+") for a, b in zip(pairs, pairs[1:])]
        print("  ".join([_cells(p) for p in pairs] + diff + [name]))
