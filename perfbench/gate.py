"""Correctness gate: every verdict and every report the benchmark times is checked here.

A sweep verdict is the stdout of `steengraph verify -n N --theorem X --json`.
It passes when the exit code is 0, it reports zero discrepancies, its case
count and findings count equal the frozen values below, and the sha256 of
its bytes equals the digest frozen from the seed code.  The sweeps take no
seed, so their output is fixed.  An analysis query passes when its report
has `oracles_agree` true and names the monomial the benchmark generated.

Each function returns the list of misses for one operation; an operation
with any miss counts as failed.
"""

import hashlib
import json

# cases per level n of the checks that sweep every monomial of A*(n)
MONOMIAL_SWEEPS = ("main", "tree", "dipath", "dirac", "paper-hamilton", "corollary-unilateral")

# (i, j) pairs at n=0..4; generator powers plus 50 random monomials plus 2 whole checks
FROZEN_CASES = {
    "antipode-paths": (1, 3, 6, 10, 15),
    "hopf-axioms": (53, 55, 58, 62),
}

# findings reported by the non-failing readings; every other check reports none
FROZEN_FINDINGS = {
    "paper-hamilton": (0, 3, 31, 35),
    "corollary-unilateral": (0, 1, 15, 0),
}

# sha256 of the `verify -n N --theorem X --json` stdout bytes, index n
DIGESTS = {
    "main": (
        "ab21e90b893dcb87093fb359e58f8eb27dea1ebdb1ff02679cfe1ff12d0bea78",
        "eb4adc059ab7b7e9eba31d6c4bc126afae161f27f95f229d2efd95dbe95e811b",
        "25ec96d8bd7b402a400b49e41e180f4261b688326eb1e170c532e09e2ddefde8",
        "48d4fbf4790f452b59707b6297db121b71beeec0891c27abe0ba24b7db3332f2",
        "91741f941c666db71a6f81f88340f9c26797ac47c7bfca97537ad915fa86f404",
    ),
    "tree": (
        "f863f9e78112d5e7667de64153c270949e8600b0e1aadec9af50c7437219d15d",
        "83a44ba2e9559656ad3d430bac894948d262cf7b0dec64bf643824f7a59b7ce7",
        "1e760b3ec1dca02e80a58106979ce439cf565e17d44a486cffa0141a47690112",
        "b078c39785d5b34f3a15577102bc4fd74c8bf74b7e08ecf37b332e5d931b6cbe",
        "3d38e9462996fc9b3c0a32c40e2031b0e7a49e6455f376cfa455350a166cc74f",
    ),
    "dipath": (
        "71e37b7670ed80be0f7abc3d1cca242752cf429e5fd0dde58e7181329a9e0c56",
        "5bc677dd994e4d34b7a86a34d13b735ebfa7d58e8f71c6c55571838bc9827518",
        "e76eabf0a9d750f5b059b6dc642ce6284ca2ab7f514747eecb7f649f899a9544",
        "35eb45a140184fc40e034e66da0fa9e3055e87baa05adfcc12182ac0d549169d",
        "621ab92f37fa0d68ec968fb086e3030eb9af7cf4c8e3075fb33f2fd8eb975949",
    ),
    "dirac": (
        "74ec3a0e60038a8edef346566b9d3478a7a8a1c705a736e7f79718927547d7c9",
        "86b3a0f68c52479075019bea6b4254b450501a1bce830dd91d392e2b1a883102",
        "9fbb408d2bfc968dc7cfbb3cc101a22cb9a5a77a79932e94b9abe56424896c07",
        "8666b2fec820157ccc6e8c921755427490a94a8870dc7bf623218be352293261",
    ),
    "paper-hamilton": (
        "e0f76730266afb6b4cfd70324850c988bac0aad2b7e26922f6eaf160bbd96825",
        "c8d960bf9dea32d982c871479c522fb1c26ebf80a9062b5a8b005231dab17449",
        "c5480c60fd0d2b661d60efa9a01b67c0d244cc76596776f8056de131d1495a61",
        "91c2e663834d99da1f9d7c4d0f0e5908f3e1fb1ffbaa8205fa8300762fbf2944",
    ),
    "antipode-paths": (
        "2da4104051ab96db8285e6614de5d5f3aef5b5726b623db3ed5d907838b8ab8c",
        "0f769fff4bb0bc7823089414bb93e5f425fb3bf65bd3afb786b9834dfd6fdb30",
        "adf8cbae7fc641b5d147a2ca87f4aeda0af18d6c6627b4920c526b45013937e0",
        "4bbd8787bb409af49fc06a2d277389f0623e6d5e400f1697ecce08a5c60cc45f",
        "603554901b4f0fb7ac2925933ba9fb1123803cc58bf9fe8b062aa35fc7f6eb10",
    ),
    "corollary-unilateral": (
        "cdf8b19c6f1586af10b775c136b42af96a259450dd7819c14ae38e485539a39e",
        "1930eea427f56c65e94cde7e4f25a38b298d019696b516bac7e8afe08c19ce19",
        "ca2f40669ad4d983119e6c887cb51b6198ebdf79f9b0a1a38d6be38dd48dba00",
        "3396e36c4dafa8b526d3e232a573a4758ef79666167c5404c80fa80ffe66e9be",
    ),
    "hopf-axioms": (
        "a1d1851cd650ca1380b233b3e446492e08beeebd9e1f4e9f9f6d48a96e202cf7",
        "28dd868937af2f4e2247f8a39d88ff5a3eae45f39da449ebb2051b90566b96fa",
        "29ce9734d662bacf5f1de2f4bcc9dd8577a84b31e2cd47efd16fb64d60d150c3",
        "e8cfb560a19f8aa1c4ef696825cf024054e2f04489dd880fd841a77fae0d1051",
    ),
}


def expected_cases(check: str, n: int) -> int:
    if check in MONOMIAL_SWEEPS:
        return 1 << ((n + 1) * (n + 2) // 2)
    return FROZEN_CASES[check][n]


def sweep_misses(check: str, n: int, exit_code, out: str) -> list:
    """Misses of one verify verdict; exit_code is an int, or a string when the call raised."""
    misses = []
    if exit_code != 0:
        misses.append(f"{check} n={n}: exit {exit_code}")
    if hashlib.sha256(out.encode()).hexdigest() != DIGESTS[check][n]:
        misses.append(f"{check} n={n}: output digest changed")
    try:
        (entry,) = json.loads(out)["checks"]
        cases, failures, findings = entry["cases"], entry["failures"], entry["findings"]
    except (ValueError, KeyError, TypeError):
        misses.append(f"{check} n={n}: output is not a one-check verify report")
        return misses
    if cases != expected_cases(check, n):
        misses.append(f"{check} n={n}: {cases} cases, expected {expected_cases(check, n)}")
    if failures:
        misses.append(f"{check} n={n}: {len(failures)} discrepancies")
    want = FROZEN_FINDINGS[check][n] if check in FROZEN_FINDINGS else 0
    if len(findings) != want:
        misses.append(f"{check} n={n}: {len(findings)} findings, expected {want}")
    return misses


def report_misses(report: dict, expected_monomial: str) -> list:
    """Misses of one analysis report for the monomial the benchmark generated."""
    misses = []
    if report.get("oracles_agree") is not True:
        misses.append(f"{expected_monomial}: oracles_agree is not true")
    if report.get("monomial") != expected_monomial:
        misses.append(f"{expected_monomial}: report names {report.get('monomial')!r}")
    return misses
