// fields.hpp — compile-time field lists for campaign aggregates.
//
// An aggregate struct (attack::AttackerStats, scenario::TrafficStats,
// core::PopulationStats, scenario::CellStats) describes its fields ONCE, as
// a `static constexpr auto fields()` returning a tuple of Field entries in
// declaration order: (wire name, member pointer, cell reduction). The cell
// reduction, campaign_fingerprint and the shard/report codec are loops over
// that list, so a new counter is one line in its struct's list and every
// consumer picks it up — none can silently skip it.
//
// The list order is a format: it is the order of the fingerprint words and
// of the sidecar/report members. Append; do not reorder.
#pragma once

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <type_traits>

namespace fortress::fields {

/// How a field combines across trials. Every reduction is exact (integer
/// sums and maxima, histogram bin adds, a fixed-order double sum), so cell
/// aggregates are bit-identical for any trial batching.
enum class Reduce : std::uint8_t { Sum, Max };

template <class S, class T>
struct Field {
  const char* name;  ///< the member's key in sidecars and reports
  T S::*member;
  Reduce reduce = Reduce::Sum;
};

/// True for a struct that carries a field list.
template <class S>
concept Aggregate = requires { S::fields(); };

/// Calls fn(field) for every entry of S's list, in list order.
template <Aggregate S, class Fn>
constexpr void for_each(Fn&& fn) {
  std::apply([&fn](const auto&... f) { (fn(f), ...); }, S::fields());
}

/// into <- reduce(into, from), field by field. Arithmetic fields sum (or
/// take the max); any other field type reduces with its own merge().
template <Aggregate S>
void merge(S& into, const S& from) {
  for_each<S>([&](const auto& f) {
    auto& a = into.*f.member;
    const auto& b = from.*f.member;
    if constexpr (std::is_arithmetic_v<std::remove_cvref_t<decltype(a)>>) {
      a = f.reduce == Reduce::Max ? std::max(a, b) : a + b;
    } else {
      a.merge(b);
    }
  });
}

}  // namespace fortress::fields
