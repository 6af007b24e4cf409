"""Checks shared by the tests."""


def realizes(tf, tt) -> bool:
    """Whether the weights and threshold of tf reproduce tt on every
    minterm: f(m) = 1 iff the weights of the inputs at 1 sum to at least
    the threshold."""
    if len(tf.weights) != tt.n:
        return False
    return all(
        (sum(w for i, w in enumerate(tf.weights) if (m >> i) & 1)
         >= tf.threshold) == bool(v)
        for m, v in enumerate(tt.values()))
