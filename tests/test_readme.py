"""The README's library examples, run as a doctest."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples():
    text = README.read_text()
    parser = doctest.DocTestParser()
    test = parser.get_doctest(text, {}, "README.md", str(README), 0)
    assert test.examples, "README has no >>> examples"
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    runner.run(test)
    assert runner.failures == 0
