import pytest

from minmatrix import fib, fibonacci, fibonacci_identity


class TestFib:
    def test_base_cases(self):
        assert fib(1) == 1
        assert fib(2) == 1

    def test_seventh(self):
        # also the sum 1 + 6 + 5 + 1 of the closed-form values at n=3
        assert fib(7) == 13

    def test_larger(self):
        assert fib(21) == 10946

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            fib(0)

    def test_cassini(self):
        for i in range(2, 60):
            assert fib(i - 1) * fib(i + 1) - fib(i) ** 2 == (-1) ** i


class TestIdentity:
    def test_n_zero(self):
        assert fibonacci_identity(0)

    def test_n_three(self):
        assert fibonacci_identity(3)

    def test_n_forty(self):
        assert fibonacci_identity(40)

    def test_sweep(self):
        assert all(fibonacci_identity(n) for n in range(80))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            fibonacci_identity(-1)

    def test_direct_form_reads_s0(self, monkeypatch):
        # The sum must use the computed S_0, not the 1 it equals, so a wrong
        # one fails the identity.
        closed = fibonacci.symfun_closed
        monkeypatch.setattr(fibonacci, "symfun_closed", lambda n, k: closed(n, k) + (k == 0))
        assert not fibonacci_identity(5)
