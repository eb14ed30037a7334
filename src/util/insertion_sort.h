/**
 * @file
 * Allocation-free stable sort for the per-step hot path.
 *
 * std::stable_sort may allocate a merge buffer on every call; the
 * simulator sorts a few dozen rack or unit indices per step, where
 * an in-place insertion sort is as fast and never touches the heap.
 */

#ifndef PAD_UTIL_INSERTION_SORT_H
#define PAD_UTIL_INSERTION_SORT_H

#include <utility>

namespace pad {

/**
 * Sort [first, last) by the strict weak order @p less, keeping
 * equivalent elements in their original order (the same result as
 * std::stable_sort) without allocating.
 */
template <typename It, typename Less>
void
insertionSort(It first, It last, Less less)
{
    for (It i = first; i != last; ++i) {
        auto key = std::move(*i);
        It j = i;
        for (; j != first && less(key, *(j - 1)); --j)
            *j = std::move(*(j - 1));
        *j = std::move(key);
    }
}

} // namespace pad

#endif // PAD_UTIL_INSERTION_SORT_H
