"""Code lines per module under src/cmclab: no blank, comment or docstring lines.

    python3 tools/code_lines.py [SRC_DIR]

A line counts when a token other than a comment or a line break lies on
it and it is not part of a module, class or function docstring.
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


if __name__ == "__main__":
    src = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else SRC
    counts = {path.name: code_lines(path.read_text()) for path in sorted(src.glob("*.py"))}
    for name, count in counts.items():
        print(f"{count:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
