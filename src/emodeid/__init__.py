"""Privacy-preserving multimodal emotion analysis toolkit."""

__version__ = "0.1.0"
