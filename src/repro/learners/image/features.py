"""Image feature extraction.

The paper's image templates use a Keras pretrained CNN (MobileNet) as a
frozen featurizer plus an XGBoost head.  Pretrained weights are not
available offline, so :class:`PretrainedCNNFeaturizer` substitutes a fixed
random convolutional projection (deterministic given the seed), which
preserves the template structure (preprocess -> frozen featurizer ->
estimator) and produces informative features for the synthetic image
tasks.  :class:`HOGFeaturizer` reproduces the classic ``hog`` primitive.

``PretrainedCNNFeaturizer.transform`` computes every image x filter x patch
activation in one NumPy pass per block of images (at most
``_BLOCK_ELEMENTS`` products).  It stays bit-identical to the per-patch
loop ``max(0.0, float(np.sum(patch * filter_bank)))`` it replaced, frozen
in ``tests/learners/test_image_kernel_identity.py``: the products are laid
out ``(images, filters, patches, s * s)`` with each patch's s * s products
contiguous in row-major order, so summing the last axis is the same
pairwise sum over the same elements; ``np.where(sums > 0.0, sums, 0.0)``
gives 0.0 for NaN and -0.0 exactly as ``max(0.0, .)`` does; and the mean and
max pool along the contiguous patch axis as the per-filter 1-D arrays did.
"""

import numpy as np

from repro.learners.base import BaseEstimator, TransformerMixin, check_random_state

#: Most float64 products one block of images may hold in
#: :meth:`PretrainedCNNFeaturizer.transform` (512 KiB; one image a block if
#: a single image needs more).  A constant, not a parameter: it bounds
#: memory and cannot change a result.
_BLOCK_ELEMENTS = 1 << 16


def flatten_images(X):
    """Flatten a stack of images into a 2-D feature matrix (one row per image)."""
    X = np.asarray(X, dtype=float)
    if X.ndim <= 2:
        return X
    return X.reshape(X.shape[0], -1)


def preprocess_input(images):
    """Scale uint8-style images to the [-1, 1] range (Keras ``preprocess_input``)."""
    images = np.asarray(images, dtype=float)
    if images.max() > 1.0:
        images = images / 127.5 - 1.0
    return images


class GaussianBlur(BaseEstimator):
    """Blur images with a separable Gaussian kernel (OpenCV stand-in)."""

    def __init__(self, kernel_size=3, sigma=1.0):
        self.kernel_size = kernel_size
        self.sigma = sigma

    def produce(self, images):
        images = np.asarray(images, dtype=float)
        if images.ndim == 2:
            images = images[None, :, :]
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ValueError("kernel_size must be a positive odd number")
        kernel = self._kernel()
        blurred = np.empty_like(images)
        for index, image in enumerate(images):
            blurred[index] = self._convolve2d_separable(image, kernel)
        return blurred

    def _kernel(self):
        half = self.kernel_size // 2
        positions = np.arange(-half, half + 1, dtype=float)
        kernel = np.exp(-(positions ** 2) / (2.0 * self.sigma ** 2))
        return kernel / kernel.sum()

    @staticmethod
    def _convolve2d_separable(image, kernel):
        pad = len(kernel) // 2
        padded = np.pad(image, pad, mode="edge")
        # horizontal then vertical pass
        horizontal = np.apply_along_axis(
            lambda row: np.convolve(row, kernel, mode="valid"), 1, padded
        )
        vertical = np.apply_along_axis(
            lambda column: np.convolve(column, kernel, mode="valid"), 0, horizontal
        )
        return vertical


class HOGFeaturizer(BaseEstimator, TransformerMixin):
    """Histogram-of-oriented-gradients features for grayscale images."""

    def __init__(self, cell_size=8, n_bins=9):
        self.cell_size = cell_size
        self.n_bins = n_bins

    def fit(self, X, y=None):
        return self

    def transform(self, X):
        images = np.asarray(X, dtype=float)
        if images.ndim == 2:
            images = images[None, :, :]
        if images.ndim == 4:  # drop a channel axis by averaging
            images = images.mean(axis=-1)
        return np.stack([self._hog(image) for image in images])

    def _hog(self, image):
        gradient_y, gradient_x = np.gradient(image)
        magnitude = np.sqrt(gradient_x ** 2 + gradient_y ** 2)
        orientation = np.arctan2(gradient_y, gradient_x) % np.pi

        height, width = image.shape
        cells_y = max(1, height // self.cell_size)
        cells_x = max(1, width // self.cell_size)
        histogram = np.zeros((cells_y, cells_x, self.n_bins))
        bin_width = np.pi / self.n_bins
        for cy in range(cells_y):
            for cx in range(cells_x):
                y0, y1 = cy * self.cell_size, min((cy + 1) * self.cell_size, height)
                x0, x1 = cx * self.cell_size, min((cx + 1) * self.cell_size, width)
                cell_magnitude = magnitude[y0:y1, x0:x1].ravel()
                cell_orientation = orientation[y0:y1, x0:x1].ravel()
                bins = np.minimum((cell_orientation / bin_width).astype(int), self.n_bins - 1)
                for bin_index in range(self.n_bins):
                    histogram[cy, cx, bin_index] = cell_magnitude[bins == bin_index].sum()
        flattened = histogram.ravel()
        norm = np.linalg.norm(flattened)
        return flattened / norm if norm > 0 else flattened


class SobelEdgeFeaturizer(BaseEstimator, TransformerMixin):
    """Edge-statistics features from Sobel gradients.

    For each image, the Sobel gradient magnitudes are summarized per grid
    cell (mean and max), giving a cheap orientation-free complement to the
    HOG features.
    """

    def __init__(self, grid=4):
        self.grid = grid

    def fit(self, X, y=None):
        if self.grid < 1:
            raise ValueError("grid must be at least 1")
        return self

    def transform(self, X):
        images = np.asarray(X, dtype=float)
        if images.ndim == 2:
            images = images[None, :, :]
        if images.ndim == 4:
            images = images.mean(axis=-1)
        return np.stack([self._featurize(image) for image in images])

    def _featurize(self, image):
        kernel_x = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=float)
        kernel_y = kernel_x.T
        gx = _convolve_valid(image, kernel_x)
        gy = _convolve_valid(image, kernel_y)
        magnitude = np.sqrt(gx ** 2 + gy ** 2)
        height, width = magnitude.shape
        cell_h = max(1, height // self.grid)
        cell_w = max(1, width // self.grid)
        features = []
        for row in range(self.grid):
            for column in range(self.grid):
                cell = magnitude[row * cell_h:(row + 1) * cell_h,
                                 column * cell_w:(column + 1) * cell_w]
                if cell.size == 0:
                    features.extend([0.0, 0.0])
                else:
                    features.extend([float(cell.mean()), float(cell.max())])
        return np.asarray(features)


def _convolve_valid(image, kernel):
    k = kernel.shape[0]
    height, width = image.shape
    if height < k or width < k:
        return np.zeros((max(height - k + 1, 1), max(width - k + 1, 1)))
    windows = np.lib.stride_tricks.sliding_window_view(image, (k, k))
    return np.einsum("ijkl,kl->ij", windows, kernel)


class PretrainedCNNFeaturizer(BaseEstimator, TransformerMixin):
    """Frozen random convolutional featurizer standing in for MobileNet/ResNet50.

    A bank of fixed random filters is convolved (valid, strided) with the
    input; ReLU activations are average- and max-pooled into a fixed-size
    feature vector (mean and max per filter; both 0.0 for an image smaller
    than the filter).  A ``stride`` below 1 is treated as 1.  Weights depend
    only on ``random_state``, so the featurizer is deterministic and
    identical across fit/produce calls, like a frozen pretrained network.
    """

    def __init__(self, n_filters=16, filter_size=5, stride=3, random_state=0):
        self.n_filters = n_filters
        self.filter_size = filter_size
        self.stride = stride
        self.random_state = random_state

    def fit(self, X, y=None):
        if self.filter_size < 1:
            raise ValueError("filter_size must be at least 1")
        if self.n_filters < 1:
            raise ValueError("n_filters must be at least 1")
        rng = check_random_state(self.random_state)
        self.filters_ = rng.normal(
            0.0, 1.0, size=(self.n_filters, self.filter_size, self.filter_size)
        )
        self.filters_ /= np.sqrt(self.filter_size ** 2)
        return self

    def transform(self, X):
        if not hasattr(self, "filters_"):
            self.fit(X)
        images = np.asarray(X, dtype=float)
        if images.ndim == 2:
            images = images[None, :, :]
        if images.ndim == 4:
            images = images.mean(axis=-1)
        n_filters, size = self.filters_.shape[:2]
        n_images, height, width = images.shape
        features = np.zeros((n_images, n_filters, 2))
        if height < size or width < size:
            return features.reshape(n_images, 2 * n_filters)
        stride = max(1, self.stride)
        windows = np.lib.stride_tricks.sliding_window_view(images, (size, size), axis=(1, 2))
        windows = windows[:, ::stride, ::stride]
        n_patches = windows.shape[1] * windows.shape[2]
        bank = self.filters_.reshape(1, n_filters, 1, size * size)
        block = max(1, _BLOCK_ELEMENTS // (n_filters * n_patches * size * size))
        for start in range(0, n_images, block):
            # (images, patches, s * s), each patch's pixels in row-major order
            patches = windows[start:start + block].reshape(-1, n_patches, size * size)
            products = patches[:, None] * bank  # (images, filters, patches, s * s)
            sums = products.sum(axis=-1)
            activations = np.where(sums > 0.0, sums, 0.0)
            features[start:start + block, :, 0] = activations.mean(axis=-1)
            features[start:start + block, :, 1] = activations.max(axis=-1)
        return features.reshape(n_images, 2 * n_filters)
