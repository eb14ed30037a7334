/**
 * @file
 * Global operator new/delete replacements that count allocations,
 * for tests asserting that a path never touches the heap. Include
 * from exactly one translation unit of a test binary.
 *
 * The whole family is replaced — plain, array, nothrow, sized and
 * aligned — so every allocation is counted and every pointer is
 * released by the allocator that produced it (a partial replacement
 * pairs the runtime's operator new[] with this file's free(), which
 * AddressSanitizer reports as an alloc-dealloc mismatch).
 */

#ifndef PAD_TESTS_COUNTING_NEW_H
#define PAD_TESTS_COUNTING_NEW_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

/** Allocations made through any operator new since the last reset. */
inline std::atomic<std::uint64_t> gAllocations{0};

namespace pad_test_alloc {

inline void *
allocate(std::size_t size, std::size_t align = alignof(std::max_align_t))
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    if (size == 0)
        size = 1;
    void *p = nullptr;
    if (align <= alignof(std::max_align_t))
        p = std::malloc(size);
    else if (posix_memalign(&p, align, size) != 0)
        p = nullptr;
    return p;
}

inline void *
allocateOrThrow(std::size_t size,
                std::size_t align = alignof(std::max_align_t))
{
    if (void *p = allocate(size, align))
        return p;
    throw std::bad_alloc();
}

} // namespace pad_test_alloc

void *
operator new(std::size_t size)
{
    return pad_test_alloc::allocateOrThrow(size);
}

void *
operator new[](std::size_t size)
{
    return pad_test_alloc::allocateOrThrow(size);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return pad_test_alloc::allocate(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return pad_test_alloc::allocate(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return pad_test_alloc::allocateOrThrow(
        size, static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return pad_test_alloc::allocateOrThrow(
        size, static_cast<std::size_t>(align));
}

void *
operator new(std::size_t size, std::align_val_t align,
             const std::nothrow_t &) noexcept
{
    return pad_test_alloc::allocate(size, static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t size, std::align_val_t align,
               const std::nothrow_t &) noexcept
{
    return pad_test_alloc::allocate(size, static_cast<std::size_t>(align));
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::align_val_t, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::align_val_t,
                  const std::nothrow_t &) noexcept
{
    std::free(p);
}

#endif // PAD_TESTS_COUNTING_NEW_H
