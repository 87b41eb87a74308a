"""README's Library block runs as written, and the results its comments claim hold."""

import ast
import io
import pathlib
import tokenize

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    """The ```python block under README's ``## Library`` heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0] + "\n"


def is_expression(text: str) -> bool:
    try:
        ast.parse(text, mode="eval")
    except SyntaxError:
        return False
    return True


def test_the_library_block_runs_and_its_claims_hold(empty_memos):
    source = library_block()
    # each comment by its line: its text, and whether code stands before it on that line
    comments = {
        token.start[0]: (token.string[1:].strip(), token.line[: token.start[1]].strip() != "")
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT
    }
    namespace: dict = {}
    checked = 0
    for statement in ast.parse(source).body:
        if not isinstance(statement, ast.Expr):
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
        line = statement.end_lineno
        same, after = comments.get(line), comments.get(line + 1)
        if same and same[1]:
            # a same-line claim: the expression's repr, or True followed by its reason
            if same[0].startswith("True"):
                assert value is True, ast.unparse(statement)
                checked += 1
            elif is_expression(same[0]):
                assert repr(value) == same[0], ast.unparse(statement)
                checked += 1
        elif after and not after[1]:
            # a next-line result: the repr, then what it means
            assert (after[0] + " ").startswith(repr(value) + " "), ast.unparse(statement)
            checked += 1
    assert checked == 11
