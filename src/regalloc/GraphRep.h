//===- regalloc/GraphRep.h - Interference representation policy -*- C++ -*-===//
///
/// \file
/// The interference-graph representation policy, shared by AllocatorOptions
/// (which selects it) and InterferenceGraph (which implements it). A tiny
/// standalone header so the options layer does not pull in the graph.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_REGALLOC_GRAPHREP_H
#define CCRA_REGALLOC_GRAPHREP_H

namespace ccra {

/// How InterferenceGraph stores the edge relation.
///
/// Dense keeps a square bit matrix with one word-aligned row per node:
/// O(1) `interfere`, and a build that ORs whole words of live ranges into
/// a row, but V^2 bits of memory and zeroing work — twice a triangle's
/// V*(V-1)/2, the price of rows that start on a word. Sparse keeps only
/// per-node adjacency (hash-set dedup while building, sorted lists +
/// binary-search `interfere` once finalized): O(V+E) memory and build
/// time. Auto picks Dense up to InterferenceGraph::DenseNodeThreshold
/// nodes (4096: a 2 MiB matrix) and Sparse above it. Allocation results
/// are bit-identical under every policy.
enum class GraphRep {
  Auto,
  Dense,
  Sparse,
};

} // namespace ccra

#endif // CCRA_REGALLOC_GRAPHREP_H
