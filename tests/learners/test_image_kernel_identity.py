"""The blocked frozen-CNN pass against the per-patch loop it replaced.

``_ReferenceCNN`` is ``PretrainedCNNFeaturizer.transform`` as it stood
before the one-pass kernel: one ``np.sum(patch * filter_bank)`` per image,
filter and patch, ``max(0.0, .)`` for the ReLU, mean and max pooling over
each filter's activations.  Search record digests depend on the features to
the last bit, so every comparison is ``array_equal`` on the raw float64
bits: a NaN, a -0.0 or a last-place rounding difference all fail it.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.learners.image import features as image_features
from repro.learners.image.features import PretrainedCNNFeaturizer


class _ReferenceCNN(PretrainedCNNFeaturizer):
    """``transform`` before the one-pass kernel, frozen as the reference semantics."""

    def transform(self, X):
        if not hasattr(self, "filters_"):
            self.fit(X)
        images = np.asarray(X, dtype=float)
        if images.ndim == 2:
            images = images[None, :, :]
        if images.ndim == 4:
            images = images.mean(axis=-1)
        return np.stack([self._featurize(image) for image in images])

    def _featurize(self, image):
        size = self.filter_size
        stride = max(1, self.stride)
        height, width = image.shape
        features = []
        for filter_bank in self.filters_:
            activations = []
            for y in range(0, height - size + 1, stride):
                for x in range(0, width - size + 1, stride):
                    patch = image[y:y + size, x:x + size]
                    activations.append(max(0.0, float(np.sum(patch * filter_bank))))
            if not activations:
                activations = [0.0]
            activations = np.asarray(activations)
            features.extend([activations.mean(), activations.max()])
        return np.asarray(features)


def assert_bit_identical(got, expected):
    assert got.shape == expected.shape and got.dtype == expected.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def _both(params, images):
    new = PretrainedCNNFeaturizer(**params).fit(images).transform(images)
    reference = _ReferenceCNN(**params).fit(images).transform(images)
    return new, reference


@st.composite
def image_stacks(draw):
    """2-D, 3-D or 4-D image inputs, with NaN, -0.0 and 1e-3 / 1e3 scales mixed in.

    Hypothesis chooses the structure; the pixels come from a seeded NumPy
    generator, which keeps a 12 x 48 x 48 x 3 stack cheap to draw.
    """
    height = draw(st.integers(1, 48))
    width = draw(st.one_of(st.just(height), st.integers(1, 48)))
    n_images = draw(st.integers(1, 12))
    rank = draw(st.sampled_from([2, 3, 4]))
    shape = {2: (height, width), 3: (n_images, height, width),
             4: (n_images, height, width, draw(st.integers(1, 3)))}[rank]
    rng = np.random.RandomState(draw(st.integers(0, 2 ** 31 - 1)))
    images = rng.normal(size=shape) * draw(st.sampled_from([1.0, 1e-3, 1e3]))
    if draw(st.booleans()):
        images = np.round(images, 1)  # ties and exact zeros
    flat = images.reshape(-1)
    for value in (np.nan, -0.0, 0.0):
        count = draw(st.sampled_from([0, 0, 1, 5]))
        flat[rng.randint(0, flat.size, size=count)] = value
    return images


cnn_params = st.fixed_dictionaries({
    "n_filters": st.integers(1, 6),
    "filter_size": st.integers(1, 9),
    "stride": st.integers(0, 11),
    "random_state": st.integers(0, 2 ** 31 - 1),
})


class TestPretrainedCNNKernel:
    @given(images=image_stacks(), params=cnn_params)
    @settings(max_examples=200, deadline=None)
    def test_matches_the_per_patch_loop(self, images, params):
        assert_bit_identical(*_both(params, images))

    @given(images=image_stacks(), params=cnn_params)
    @settings(max_examples=50, deadline=None)
    def test_block_boundaries_never_change_a_result(self, images, params):
        budget = image_features._BLOCK_ELEMENTS
        image_features._BLOCK_ELEMENTS = 1  # one image a block
        try:
            new = PretrainedCNNFeaturizer(**params).fit(images).transform(images)
        finally:
            image_features._BLOCK_ELEMENTS = budget
        assert_bit_identical(new, _ReferenceCNN(**params).fit(images).transform(images))

    @pytest.mark.parametrize("preset", [
        {"n_filters": 12, "filter_size": 5, "stride": 4},  # MobileNet
        {"n_filters": 24, "filter_size": 5, "stride": 3},  # ResNet50
        {"n_filters": 16, "filter_size": 3, "stride": 3},  # DenseNet121
        {"n_filters": 20, "filter_size": 7, "stride": 4},  # Xception
    ])
    def test_catalog_presets_on_suite_sized_images(self, preset):
        # the Table II image tasks: 80 images of 16 x 16, scaled to [-1, 1]
        images = np.random.RandomState(0).uniform(-1.0, 1.0, size=(80, 16, 16))
        assert_bit_identical(*_both(dict(preset, random_state=0), images))

    def test_a_long_patch_sums_pairwise_in_the_same_order(self):
        # 11 x 11 = 121 products: past the 8-way unrolled pairwise block
        images = np.random.RandomState(1).normal(size=(3, 30, 30)) * 1e3
        assert_bit_identical(*_both({"n_filters": 3, "filter_size": 11, "stride": 2}, images))


class TestPretrainedCNNParameters:
    @pytest.mark.parametrize("name", ["filter_size", "n_filters"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_sizes_below_one_are_rejected(self, name, value):
        images = np.zeros((2, 16, 16))
        with pytest.raises(ValueError, match="{} must be at least 1".format(name)):
            PretrainedCNNFeaturizer(**{name: value}).fit(images)
        with pytest.raises(ValueError, match="{} must be at least 1".format(name)):
            PretrainedCNNFeaturizer(**{name: value}).transform(images)

    @pytest.mark.parametrize("stride", [0, -3])
    def test_a_stride_below_one_is_clamped_to_one(self, stride):
        images = np.random.RandomState(2).normal(size=(2, 12, 12))
        clamped = PretrainedCNNFeaturizer(stride=stride).fit_transform(images)
        assert_bit_identical(clamped, PretrainedCNNFeaturizer(stride=1).fit_transform(images))

    def test_an_image_smaller_than_the_filter_gives_zero_features(self):
        features = PretrainedCNNFeaturizer(n_filters=3, filter_size=5).fit_transform(
            np.ones((2, 4, 9)))
        assert features.shape == (2, 6) and not features.any()
