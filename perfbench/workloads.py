"""The benchmark's workloads: seeded inputs and one operation each.

Every operation of a workload comes from one size class, so its cost does
not depend on which seeded input it draws. ``steps`` gives one operation
as a short list of steps; each step calls the program, checks every answer
with ``checks`` and returns True only if all passed. The worker takes a
calibration sample between steps. Layer functions are looked up on their
modules at call time, so the tracer's wrappers see every call.
"""

import contextlib
import io
import math
from dataclasses import dataclass

from minmatrix import determinants, matrices, symmetric

import checks

# With fewer than forty samples a percentile above the median is no tail.
MIN_OPS = 40

# det_structured: A_D and C_{D+k-1,k} share the dimension D. Below k ~ 40
# a shifted elimination is measurably cheaper, so k stays in the flat band.
STRUCTURED_DIM = 150
STRUCTURED_K = (40, 100)

# det_bigint: 48 increments of 63-64 bits with random sign give a delta
# matrix of dimension 48; 49 give a theta matrix of dimension 48. The
# characteristic matrix lam*I - A_n is sized to cost about the same.
BIGINT_DIM = 48
BIGINT_CHAR_N = 120
BIGINT_LAMBDA = (4, 5)

# S(100, k) costs about 1.5% less per step of k, so k takes the three
# middle values equally often.
SYMFUN_N = 100
SYMFUN_K = (49, 50, 51)

# cli_session: one fixed sequence of commands; only the seeded arguments change.
SESSION_VERIFY_N_MAX = 16
SESSION_SIM_N = 8
SESSION_SIM_M = 200_000
SESSION_DET_DIM = 40
SESSION_SYMFUN_N = 12
SESSION_SYMFUN_K = (5, 7)  # C(12, 5) = C(12, 7): the same number of minors
SESSION_MATRIX_DIM = 24


def _rounds(rng, count, values):
    """``count`` values drawn as whole rounds: each round is ``values`` in
    a seeded order, so every seed gives the same mix."""
    drawn = []
    while len(drawn) < count:
        drawn.extend(rng.sample(values, len(values)))
    return drawn[:count]


def _increments(rng, count):
    return [rng.choice((-1, 1)) * rng.randrange(2**63, 2**64) for _ in range(count)]


def structured_inputs(rng, count):
    return [rng.randint(*STRUCTURED_K) for _ in range(count)]


def structured_steps(k, note):
    def min_matrix():
        return checks.det_min(determinants.det_bareiss(matrices.build_min_matrix(STRUCTURED_DIM)))

    def shifted():
        matrix = matrices.build_c_matrix(STRUCTURED_DIM + k - 1, k)
        return checks.det_shifted(k, determinants.det_bareiss(matrix))

    return [min_matrix, shifted]


def bigint_inputs(rng, count):
    # Kinds rotate delta, theta, char(lam) so each is a third of the
    # operations; the characteristic matrices alternate between the lambdas.
    inputs = []
    for i in range(count):
        kind = i % 3
        if kind == 0:
            inputs.append(("delta", _increments(rng, BIGINT_DIM)))
        elif kind == 1:
            inputs.append(("theta", _increments(rng, BIGINT_DIM + 1)))
        else:
            inputs.append(("char", BIGINT_LAMBDA[i // 3 % len(BIGINT_LAMBDA)]))
    return inputs


def bigint_steps(inp, note):
    kind, arg = inp

    def step():
        if kind == "delta":
            return checks.det_delta(arg, determinants.det_bareiss(matrices.build_delta_matrix(arg)))
        if kind == "theta":
            return checks.det_theta(arg, determinants.det_bareiss(matrices.build_theta_matrix(arg)))
        n, lam = BIGINT_CHAR_N, arg
        value = determinants.det_bareiss(symmetric.char_matrix(n, lam))
        poly = symmetric.charpoly(n)(lam)
        return checks.det_char(n, lam, value) and poly == value

    return [step]


def symfun_inputs(rng, count):
    return _rounds(rng, count, SYMFUN_K)


def symfun_steps(k, note):
    n = SYMFUN_N

    def methods(*names):
        # Every method runs before the checks, so a failure costs the same time.
        values = [getattr(symmetric, name)(n, k) for name in names]
        return all([checks.symfun(n, k, value) for value in values])

    # ratio and closed take microseconds: they share a step with rec7.
    return [
        lambda: methods("symfun_nested"),
        lambda: methods("symfun_rec6"),
        lambda: methods("symfun_rec7", "symfun_ratio", "symfun_closed"),
    ]


def session_inputs(rng, count):
    inputs = []
    for symfun_k in _rounds(rng, count, SESSION_SYMFUN_K):
        det_k = rng.randint(2, SESSION_DET_DIM)
        matrix_k = rng.randint(2, SESSION_MATRIX_DIM)
        inputs.append({
            "seed": rng.randrange(2**31),
            "det": (SESSION_DET_DIM + det_k - 1, det_k),
            "symfun_k": symfun_k,
            "matrix": (SESSION_MATRIX_DIM + matrix_k - 1, matrix_k),
        })
    return inputs


def _call_cli(argv, note):
    from minmatrix import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    text = out.getvalue()
    note("cli.stdout_bytes", len(text.encode()))
    if code != 0:
        raise RuntimeError(f"minmatrix {' '.join(argv)} exited with {code}")
    return text


def session_steps(inp, note):
    seed = str(inp["seed"])
    det_n, det_k = inp["det"]
    sym_k = inp["symfun_k"]
    mat_n, mat_k = inp["matrix"]
    n, m = SESSION_SIM_N, SESSION_SIM_M

    def verify():
        return checks.verify_json(_call_cli(
            ["verify", "--suite", "all", "--n-max", str(SESSION_VERIFY_N_MAX),
             "--seed", seed, "--format", "json"], note))

    def simulate():
        return checks.simulate_csv(_call_cli(
            ["simulate", "--n", str(n), "--m", str(m), "--seed", seed, "--format", "csv"],
            note), n, m)

    def small_commands():
        # Each command runs before any check, so a failure costs the same time.
        outputs = [
            _call_cli(["det", "c", "--n", str(det_n), "--k", str(det_k), "--method", "both",
                       "--format", "plain"], note),
            _call_cli(["symfun", "--n", str(SESSION_SYMFUN_N), "--k", str(sym_k),
                       "--method", "all", "--format", "json"], note),
            _call_cli(["matrix", "c", "--n", str(mat_n), "--k", str(mat_k), "--format", "plain"],
                      note),
        ]
        return all([
            checks.det_plain(outputs[0], det_k),
            checks.symfun_json(outputs[1], SESSION_SYMFUN_N, sym_k),
            checks.matrix_plain(outputs[2], mat_n, mat_k),
        ])

    return [verify, simulate, small_commands]


@dataclass(frozen=True)
class Workload:
    inputs: object
    steps: object
    #: Nominal operations per second on the reference machine; a run of
    #: ``--seconds s`` does a fixed round(s * rate) operations.
    rate: float
    #: Operation count is a multiple of this, so every run has the same mix.
    round_size: int = 1
    #: Modules beyond ``import minmatrix`` that set-up imports.
    modules: tuple = ()
    #: Calibration kernel whose arithmetic resembles the operations'.
    kernel: str = "small"

    def op_count(self, seconds):
        """Fixed operation count for a run of ``seconds``: at least
        MIN_OPS, so the tail percentile has ten samples beyond it."""
        rounds = max(MIN_OPS, round(seconds * self.rate)) / self.round_size
        return math.ceil(rounds) * self.round_size


WORKLOADS = {
    "det_structured": Workload(structured_inputs, structured_steps, rate=3.5),
    "det_bigint": Workload(bigint_inputs, bigint_steps, rate=5.0, round_size=6, kernel="big"),
    "symfun_exact": Workload(symfun_inputs, symfun_steps, rate=9.0, round_size=3, kernel="big"),
    "cli_session": Workload(
        session_inputs, session_steps, rate=4.0, round_size=2, modules=("minmatrix.cli",)
    ),
}
