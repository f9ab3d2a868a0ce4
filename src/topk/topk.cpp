#include "topk/topk.hpp"

namespace drtopk::topk {

std::string to_string(Algo a) {
  switch (a) {
    case Algo::kRadixFlag: return "radix-flag";
    case Algo::kRadixGgksOop: return "radix-ggks-oop";
    case Algo::kRadixGgksInplace: return "radix-ggks-inplace";
    case Algo::kBucketInplace: return "bucket-inplace";
    case Algo::kBucketOop: return "bucket-ggks-oop";
    case Algo::kBucketGgksInplace: return "bucket-ggks-inplace";
    case Algo::kBitonic: return "bitonic";
    case Algo::kSortAndChoose: return "sort-and-choose";
    case Algo::kHeap: return "heap";
  }
  return "?";
}

}  // namespace drtopk::topk
