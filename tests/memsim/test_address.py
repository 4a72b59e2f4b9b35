"""Unit tests for the address-space constants."""

from repro.memsim import address


def test_page_size_constants():
    assert address.PAGE_SIZE == 4096
    assert address.HUGE_PAGE_SIZE == 2 * 1024 * 1024
    assert address.PAGES_PER_HUGE_PAGE == 512
