"""The README's CLI walkthrough runs as written in a fresh directory: each
``$ cat`` writes the file it shows, and each ``$ dmuss`` command exits 0
and prints the lines shown under it (stdout, then stderr, as a terminal
shows them), so a change to the CLI's output cannot leave the
walkthrough stale."""

import pathlib
import re
import shlex

from dmuss.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def walkthrough() -> list:
    """The ``(command, shown lines)`` pairs of the README's CLI walkthrough,
    the ``sh`` block that starts with ``$ cat instance.json``; a command's
    ``# ...`` remark is dropped."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    (block,) = [b for b in blocks if b.startswith("$ cat instance.json")]
    steps = []
    for line in block.splitlines():
        if line.startswith("$ "):
            steps.append((line[2:].split("#")[0].strip(), []))
        elif line:
            steps[-1][1].append(line)
    return steps


def matches(shown: list, out: str) -> bool:
    """``out`` is the shown lines, or, where they elide with ``...``, fits
    them with any text in each gap, whitespace runs taken as one space."""
    text = " ".join(shown)
    if "..." not in text:
        return out.splitlines() == shown
    pattern = ".*".join(re.escape(part) for part in text.split("..."))
    return re.fullmatch(pattern, " ".join(out.split()), re.S) is not None


def test_readme_cli_walkthrough_prints_what_it_shows(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    steps = walkthrough()
    commands = [cmd.split()[1] for cmd, _ in steps if cmd.startswith("dmuss ")]
    assert commands == ["check", "plan", "encode", "decode", "verify"]
    for cmd, shown in steps:
        argv = shlex.split(cmd)
        if argv[0] == "cat":
            (tmp_path / argv[1]).write_text("\n".join(shown) + "\n", encoding="utf-8")
            continue
        assert argv[0] == "dmuss" and main(argv[1:]) == 0, cmd
        out, err = capsys.readouterr()
        assert matches(shown, out + err), (cmd, out, err)
    assert (tmp_path / "plan.json").exists() and (tmp_path / "shares.json").exists()
