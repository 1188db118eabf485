"""Where in preparation-postselection space the box-projector weak values
turn negative.

The two projector weak values always sum to one. When either drops below
zero the pair stops being a probability assignment, and that happens exactly
when the imbalance weak value leaves the eigenvalue range [-1, 1].
"""

import math

from twobox import DomainError, Postselection, TwoLevelState, projector_weak_values, weak_value


def main():
    print("map of negativity over (p1, theta); '#' negative, '.' ordinary, ' ' singular")
    thetas = [k * math.pi / 24 for k in range(1, 48)]
    print(f"           theta from pi/24 to 47pi/24, pi at column {thetas.index(math.pi) + 1}")
    for p1 in [0.05 * k for k in range(1, 20)]:
        row = []
        for theta in thetas:
            i = TwoLevelState.from_occupation(p1)
            f = Postselection(theta).state
            try:
                row.append("#" if projector_weak_values(i, f).negative else ".")
            except DomainError:
                row.append(" ")
        print(f"  p1={p1:4.2f}  {''.join(row)}")

    print()
    i = TwoLevelState.from_occupation(0.75)
    f = Postselection(math.pi / 3).state
    pwv = projector_weak_values(i, f)
    aw = weak_value(i, f)
    print(f"example at p1 = 0.75, theta = pi/3:")
    print(f"  w1 = {pwv.w1.real:+.6f}, w2 = {pwv.w2.real:+.6f}, sum = {(pwv.w1 + pwv.w2).real:.6f}")
    print(f"  imbalance weak value w1 - w2 = {aw.real:+.6f}, negative = {pwv.negative}")
    print("left half: postselection fights the preparation and anomaly is generic;")
    print("right half (theta > pi) it cooperates and the weak values behave;")
    print("blanks mark the ridge where postselection never succeeds")


if __name__ == "__main__":
    main()
