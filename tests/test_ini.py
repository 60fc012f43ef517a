"""The config reader against configparser, the INI reader it replaced.

``cli._read_ini`` reads the subset of INI that the README documents. On
every text it must either give configparser's sections and raw values
exactly (``ConfigParser(interpolation=None)``, the settings the CLI used) or
refuse the text with a ``ConfigError``, which ``cli.main`` turns into exit 2.
It never gives a silently different value.

Two generators drive the check:

* configs in the documented subset: section names with any case, ``=`` and
  ``:`` delimiters, mixed-case keys, whitespace around every part (a shared
  indentation for headers and keys, any for comment and blank lines), ``#``
  and ``;`` comment lines, blank lines and values holding ``;``, ``#``,
  ``=``, ``:`` and brackets. The reader must give configparser's dict.
* the same configs with malformed lines put in: continuation lines,
  ``[DEFAULT]``, repeated sections and keys, keys before the first header,
  lines without a delimiter or a key, and headers with text after them. The
  reader must give configparser's dict or refuse the text.

Hypothesis runs derandomized, so the examples are the same on every run.
"""

import configparser
import string
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ionramsey import cli
from ionramsey.errors import ConfigError

oracle = settings(derandomize=True, deadline=None, max_examples=300, database=None)

# Whitespace that str.strip and configparser's indentation regex both see.
SPACE = st.text(st.sampled_from(" \t\x0b\x0c\xa0 "), max_size=3)
# Text within one line: never "\n", the only line break either reader splits at.
LINE_TEXT = st.text(
    st.characters(blacklist_characters="\n", blacklist_categories=("Cs",)), max_size=12
)
# A key starts with a letter and holds no delimiter.
KEY = st.builds(
    str.__add__,
    st.sampled_from("aBzQ_Äßİ"),
    st.text(st.sampled_from(string.ascii_letters + string.digits + "_-. #;[]Σ"), max_size=8),
).map(str.rstrip)
NAME = st.text(
    st.sampled_from(string.ascii_letters + string.digits + "_- .[]=:;#"), min_size=1, max_size=8
).filter(lambda name: name != "DEFAULT")
VALUE = st.one_of(LINE_TEXT, st.sampled_from(["", "1 ; not a comment", "# kept", "a=b:c", "[x]"]))
FILLER = st.lists(
    st.one_of(
        SPACE,  # a blank line
        st.builds(lambda lead, mark, text: lead + mark + text,
                  SPACE, st.sampled_from("#;"), LINE_TEXT),
    ),
    max_size=2,
)


def configparser_dict(text):
    """configparser's reading of ``text``, or None where it raises."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error:
        return None
    return {name: dict(parser[name]) for name in parser.sections()}


def reader_dict(text):
    """The reader's dict, or None where it refuses the text."""
    try:
        return cli._read_ini(text, "test.ini")
    except ConfigError as exc:
        assert str(exc).startswith("config parse error in test.ini: line ")
        return None


@st.composite
def config_lines(draw):
    """The lines of one config in the documented subset."""
    indent = draw(SPACE)
    lines = []
    for name in draw(st.lists(NAME, min_size=1, max_size=3, unique=True)):
        lines += draw(FILLER)
        lines.append(f"{indent}[{name}]{draw(SPACE)}")
        for key in draw(st.lists(KEY, max_size=4, unique_by=str.lower)):
            lines += draw(FILLER)
            delimiter = draw(st.sampled_from("=:"))
            lines.append(
                f"{indent}{key}{draw(SPACE)}{delimiter}{draw(SPACE)}{draw(VALUE)}{draw(SPACE)}"
            )
    return lines + draw(FILLER)


def _text(lines, end):
    return "\n".join(lines) + end


BAD_LINES = st.one_of(
    st.builds(lambda lead, text: "    " + lead + text, SPACE, LINE_TEXT),  # continuation
    st.sampled_from([
        "[DEFAULT]", "[DEFAULT]\nseed = 1", "no delimiter", "= no key", ": no key",
        "[a] trailing", "[a", "[]", "key before = header", "[", "]",
    ]),
    st.builds(lambda key, value: f"{key} = {value}", KEY, VALUE),
)


@st.composite
def malformed_lines(draw):
    """A documented-subset config with malformed lines put in, some of them
    copies of its own headers and keys."""
    lines = draw(config_lines())
    for _ in range(draw(st.integers(1, 3))):
        bad = draw(st.one_of(BAD_LINES, st.sampled_from(lines) if lines else BAD_LINES))
        if draw(st.booleans()):
            bad = bad.swapcase()  # a key given twice in another case
        lines.insert(draw(st.integers(0, len(lines))), bad)
    return lines


@oracle
@given(config_lines(), st.sampled_from(["", "\n"]))
@example(["[run]", "seed = 42", "", "[ramsey]", "; protocol: ghz or standard",
          "protocol = ghz", "Omega_0: 0.1 ; rad/s"], "\n")
@example(["  [A b]  ", "  KEY\t=\tvalue ;x  ", "\t\t# comment", "", "  k2 :=v"], "")
@example(["[run]", "  seed = 1", "  ; a note", "      # deeper note", "  other: 2", "[x]"], "\n")
def test_documented_subset_reads_as_configparser_reads_it(lines, end):
    text = _text(lines, end)
    expected = configparser_dict(text)
    assert expected is not None, text  # the generator keeps to the subset
    assert reader_dict(text) == expected


@oracle
@given(malformed_lines(), st.sampled_from(["", "\n"]))
@example(["[run]", "seed = 1", "  2"], "\n")  # configparser reads seed = "1\n2"
@example(["[run]", "seed = 1", "", "\t  2"], "\n")
@example(["[run]", "  seed = 1", "    2"], "\n")
@example(["[DEFAULT]", "seed = 1", "[run]"], "\n")
@example(["[run]", "seed = 1", "[run]"], "")
@example(["[run]", "seed = 1", "SEED = 2"], "")
@example(["seed = 1", "[run]"], "")
@example(["[run]", "seed"], "")
@example(["[run] seed = 1"], "")
def test_malformed_lines_read_as_configparser_reads_them_or_are_refused(lines, end):
    text = _text(lines, end)
    got = reader_dict(text)
    if got is None or got == configparser_dict(text):
        return
    # The reader kept a [DEFAULT] section, which no command allows.
    assert "DEFAULT" in got, text
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "c.ini"
        config.write_text(text)
        for command in cli._COMMANDS:
            with pytest.raises(ConfigError):
                cli._load_config(str(config), command)
