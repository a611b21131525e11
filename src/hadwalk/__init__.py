"""Exact return probabilities of the one-dimensional Hadamard quantum walk,
the elliptic-integral form of their generating function, and the classical
random-walk values they are compared against.
"""
