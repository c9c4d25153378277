"""README's examples run and give the values their comments state."""

import ast
import re
import shlex
from pathlib import Path

from mixeuler.cli import run

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced(heading, lang):
    """The first fenced block in lang after heading."""
    after = README.split(heading, 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", after, re.S).group(1)


def test_library_quick_start_gives_each_commented_value():
    # each expression's comment starts with the repr of its value, then
    # ends or goes on with " ==" or ":"
    source = fenced("## Library quick start", "python")
    lines = source.splitlines()
    namespace = {}
    checked = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        got = repr(eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace))
        comment = lines[node.lineno - 1].split("# ", 1)[1]
        assert comment == got or comment.startswith((got + " ==", got + ":")), (comment, got)
        checked.append(got)
    assert len(checked) == 7


def test_command_line_examples_print_their_values(capsys):
    calls = re.findall(r"^mixeuler (.*?)\s+# -> (\S+)$", fenced("Subcommands:", "sh"), re.M)
    assert len(calls) == 3
    for argv, want in calls:
        assert run(shlex.split(argv)) == 0, argv
        assert capsys.readouterr().out == want + "\n", argv
