"""The code-line counter of ``tests/code_lines.py`` on a fixed snippet."""

import textwrap

from code_lines import code_lines, main

SNIPPET = textwrap.dedent(
    '''\
    """A module docstring
    over two lines."""

    import os  # a trailing comment


    def f(x):
        """A one-line docstring."""
        # a comment line

        y = (x +
             1)
        s = """a string
    that is no docstring"""
        return y, s


    class C:
        """A class docstring."""

        attr = os.sep
    '''
)


def test_counts_token_lines_outside_docstrings(tmp_path, capsys):
    # import, def, the two lines of y, the two of s, return, class, attr
    assert code_lines(SNIPPET) == 9
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    main([str(tmp_path)])
    counts = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert counts == ["9", "1", "10"]
