"""Seeded input generators: source trees to index and scripted repair tasks.

Everything here is a pure function of its seed and size arguments and uses
only the standard library, so the program under test sees nothing but the
generated files and task records.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORDS = (
    "parse read write load save split join merge sort filter map reduce count "
    "index search find match scan token line field record row column table "
    "cache buffer queue stack heap tree graph node edge path route walk visit "
    "encode decode compress hash digest sign verify check validate normalize "
    "format render print emit flush close open seek offset length size width "
    "height matrix vector scale rotate shift mask bits byte word char string "
    "number integer float decimal ratio total sum mean median range bound limit "
    "window chunk batch stream frame packet header payload message event signal "
    "timer clock retry backoff lock mutex thread worker task job pool schedule "
    "config option flag default value key entry item list array set dict pair "
    "user account session token secret policy rule grant role group member "
    "image pixel color channel sample audio volume level meter report summary "
    "error warning status result output input source target local remote file"
).split()

BRACED_LANGUAGES = (("c", ".c", "int"), ("java", ".java", "static int"))

MODULUS = 1_000_003
BIG_OUTPUT_LINES = 14_000  # about 100 KB of stdout
DUPLICATE_SHARE = 0.05
FILE_DEFINITIONS = 12  # mean definitions per source file


# ------------------------------------------------------------------ source trees


def _words(rng: random.Random, low: int, high: int) -> list[str]:
    return [rng.choice(WORDS) for _ in range(rng.randint(low, high))]


def _body_lines(rng: random.Random, median_lines: float) -> int:
    """Heavy-tailed body length: log-normal around ``median_lines``."""
    return max(2, min(400, int(math.exp(rng.gauss(math.log(median_lines), 0.9)))))


def _statement(rng: random.Random) -> str:
    left, right, arg = (rng.choice(WORDS) for _ in range(3))
    return f"{left}_{right} = {rng.choice(WORDS)}_{arg}({arg}, {rng.randint(0, 999)})"


def _python_definition(rng: random.Random, median_lines: float, pool: list[str]) -> str:
    name = "_".join(_words(rng, 2, 3))
    args = ", ".join(dict.fromkeys(_words(rng, 1, 3)))
    lines = [f"def {name}({args}):", f'    """{" ".join(_words(rng, 5, 12)).capitalize()}."""']
    for _ in range(rng.randint(0, 3)):
        lines.append(f"    # {' '.join(_words(rng, 3, 8))}")
    lines.extend(f"    {line}" for line in rng.choices(pool, k=_body_lines(rng, median_lines)))
    lines.append(f"    return {rng.choice(WORDS)}")
    return "\n".join(lines)


def _braced_definition(
    rng: random.Random, median_lines: float, pool: list[str], return_type: str
) -> str:
    words = _words(rng, 2, 3)
    name = words[0] + "".join(word.capitalize() for word in words[1:])
    args = ", ".join(f"int {word}" for word in dict.fromkeys(_words(rng, 1, 3)))
    lines = [f"/* {' '.join(_words(rng, 5, 12))} */", f"{return_type} {name}({args}) {{"]
    for _ in range(rng.randint(0, 2)):
        lines.append(f"    // {' '.join(_words(rng, 3, 8))}")
    lines.extend(f"    int {line};" for line in rng.choices(pool, k=_body_lines(rng, median_lines)))
    lines.extend([f"    return {rng.choice(WORDS)};", "}"])
    return "\n".join(lines)


def write_source_tree(root: Path, seed: int, definitions: int, median_lines: float) -> list[str]:
    """Write a seeded tree holding exactly ``definitions`` top-level definitions.

    About 85% of the files are Python; the rest are C and Java so the braced
    extractor runs too. Returns the written paths, sorted.
    """
    rng = random.Random(seed)
    pool = [_statement(rng) for _ in range(4096)]
    written: dict[str, list[str]] = {".py": [], ".c": [], ".java": []}

    def definition(suffix: str, make) -> str:
        # Some definitions are copies, as pasted code is: the copies tie in
        # top-k and the redundancy filter drops them.
        if written[suffix] and rng.random() < DUPLICATE_SHARE:
            return rng.choice(written[suffix])
        text = make()
        written[suffix].append(text)
        return text

    root.mkdir(parents=True, exist_ok=True)
    paths = []
    remaining = definitions
    number = 0
    while remaining > 0:
        count = min(remaining, rng.randint(1, 2 * FILE_DEFINITIONS - 1))
        if rng.random() < 0.85:
            suffix = ".py"
            make = functools.partial(_python_definition, rng, median_lines, pool)
        else:
            _, suffix, return_type = rng.choice(BRACED_LANGUAGES)
            make = functools.partial(_braced_definition, rng, median_lines, pool, return_type)
        chunks = [definition(suffix, make) for _ in range(count)]
        path = root / f"pkg{number // 100:03d}" / f"mod{number:05d}{suffix}"
        path.parent.mkdir(exist_ok=True)
        path.write_text("\n\n\n".join(chunks) + "\n", encoding="utf-8")
        paths.append(str(path))
        remaining -= count
        number += 1
    return sorted(paths)


def denylist(rng: random.Random, count: int) -> frozenset[str]:
    """``count`` two-word identifiers; a few match generated Python function names."""
    return frozenset("_".join(_words(rng, 2, 2)) for _ in range(count))


# ------------------------------------------------------------------ repair tasks

PASS, WRONG, EXCEPTION = "pass", "wrong_output", "exception"

# Every shape the scripted model can take, as the behaviour of each round.
SHAPES = (
    ("pass_first", (PASS,)),
    ("wrong_then_fix", (WRONG, PASS)),
    ("exception_then_fix", (EXCEPTION, PASS)),
    ("exception_wrong_fix", (EXCEPTION, WRONG, PASS)),
    ("never_fixed", None),  # fails every round of the budget
)
# Shapes of one cycle of tasks (indices into SHAPES). Runs hold whole
# cycles, so the mix is the same whatever the seed. Task times cluster by
# round count (1, 1, 2, 2, 3, 5 rounds): the median falls in the middle of
# the two-round cluster, away from the clusters on either side.
CYCLE = (0, 0, 1, 2, 3, 4)


@dataclass(frozen=True)
class Case:
    id: int
    input: str
    expected: str


@dataclass(frozen=True)
class Task:
    """One scripted repair task and the outcome its script must produce."""

    id: str
    shape: str
    spec: str
    cases: tuple[Case, ...]
    script: tuple[dict, ...]
    subgoals: tuple[str, ...]
    verdicts: tuple[tuple[str, ...], ...]  # per executed round, in test-id order
    programs: tuple[str, ...]  # per executed round
    passed: bool
    returned_round: int


def _expected_output(a: int, b: int, n: int) -> str:
    return "".join(f"{(a * i + b) % MODULUS}\n" for i in range(n))


def _program(behaviour: str, failing: frozenset[int], marker: str) -> str:
    lines = ["import sys", "a, b, n, t = map(int, sys.stdin.read().split())"]
    if behaviour == WRONG:
        lines += [f"if t in {sorted(failing)}:", f"    print({marker!r})", "    sys.exit(0)"]
    elif behaviour == EXCEPTION:
        lines += [f"if t in {sorted(failing)}:", f"    raise ValueError({marker!r})"]
    lines.append(f'sys.stdout.write("".join(f"{{(a * i + b) % {MODULUS}}}\\n" for i in range(n)))')
    return "\n".join(lines)


def _plan_answer(subgoals) -> str:
    bullets = "\n".join(f"- {name}: handle {name} for each input line" for name in subgoals)
    return (
        "CONTRACT: four integers a b n t on stdin -> n integers on stdout\n"
        "SKETCH: read the input; for i in range(n) print (a*i+b) mod p\n"
        f"SUBGOALS:\n{bullets}"
    )


def make_task(
    rng: random.Random, number: int, shape_index: int, tests: int, big_tests: int, budget: int
) -> Task:
    """Build one task of ``SHAPES[shape_index]`` with a script that realizes it."""
    shape, behaviours = SHAPES[shape_index]
    if behaviours is None:
        behaviours = tuple(rng.choice((WRONG, EXCEPTION)) for _ in range(budget))
    a, b = rng.randint(2, 999), rng.randint(0, 999)
    big = set(rng.sample(range(1, tests + 1), big_tests))
    cases = []
    for test_id in range(1, tests + 1):
        n = BIG_OUTPUT_LINES if test_id in big else rng.randint(1, 12)
        cases.append(Case(test_id, f"{a} {b} {n} {test_id}", _expected_output(a, b, n)))
    padding = " ".join(_words(rng, 130, 160))
    spec = (
        f"Task {number}: read four integers a b n t from standard input and print n lines; "
        f"line i holds (a*i + b) mod {MODULUS}. Background notes: {padding}."
    )
    subgoals: dict[str, None] = {}
    while len(subgoals) < 4:
        subgoals[" ".join(_words(rng, 2, 3))] = None

    script = [{"needles": ["[[PLANNING]]"], "response": _plan_answer(subgoals)}]
    round_entries = []
    verdicts, programs = [], []
    previous_marker = None
    for t, behaviour in enumerate(behaviours):
        marker = f"ARCSBENCH_{number}_{t}_{rng.getrandbits(32):08x}"
        failing = frozenset()
        if behaviour != PASS:
            failing = frozenset(rng.sample(range(1, tests + 1), rng.randint(1, tests)))
        program = _program(behaviour, failing, marker)
        entry = {"response": f"```python\n{program}\n```"}
        if previous_marker is None:
            entry["feedback"] = False
        else:
            entry["needles"] = [previous_marker]
        round_entries.append(entry)
        programs.append(program)
        verdicts.append(tuple(behaviour if i in failing else PASS for i in range(1, tests + 1)))
        previous_marker = marker
    # Later rounds first: a round's prompt still holds every earlier marker.
    script.extend(reversed(round_entries))

    passed = behaviours[-1] == PASS
    pass_counts = [vector.count(PASS) for vector in verdicts]
    returned_round = len(behaviours) - 1 if passed else pass_counts.index(max(pass_counts))
    return Task(
        id=f"task{number:04d}-{shape}",
        shape=shape,
        spec=spec,
        cases=tuple(cases),
        script=tuple(script),
        subgoals=tuple(subgoals),
        verdicts=tuple(verdicts),
        programs=tuple(programs),
        passed=passed,
        returned_round=returned_round,
    )


def task_cycle(
    rng: random.Random, first_number: int, tests: int, big_tests: int, budget: int
) -> list[Task]:
    """The tasks of one ``CYCLE``, in seeded order."""
    order = list(CYCLE)
    rng.shuffle(order)
    return [
        make_task(rng, first_number + offset, shape_index, tests, big_tests, budget)
        for offset, shape_index in enumerate(order)
    ]
