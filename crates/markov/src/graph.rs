//! Graph algorithms on the transition structure of a chain.
//!
//! Used to validate solver preconditions: steady-state analysis needs a
//! unichain (a single terminal strongly connected component), and the SAN
//! linter checks that every transient state can reach an absorbing one.

use sparsela::CsrMatrix;

/// Computes the strongly connected components of the directed graph whose
/// adjacency is the non-zero off-diagonal pattern of `m`.
///
/// Returns `(component_of, count)`: `component_of[v]` is the component index
/// of vertex `v`, with components numbered in reverse topological order
/// (an edge `u → v` between different components implies
/// `component_of[u] > component_of[v]`).
///
/// Implementation: iterative Tarjan (explicit stack), so deep chains cannot
/// overflow the call stack, in `O(n + nnz)`.
pub fn strongly_connected_components(m: &CsrMatrix) -> (Vec<usize>, usize) {
    let n = m.rows();
    const UNVISITED: usize = usize::MAX;

    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut component = vec![UNVISITED; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut count = 0usize;

    // The off-diagonal successors of every vertex, flattened once:
    // `successors[offsets[v]..offsets[v + 1]]`.
    let mut offsets = Vec::with_capacity(n + 1);
    let mut successors = Vec::with_capacity(m.nnz());
    offsets.push(0);
    for v in 0..n {
        successors.extend(
            m.row(v)
                .filter(|&(c, w)| c != v && w != 0.0)
                .map(|(c, _)| c),
        );
        offsets.push(successors.len());
    }

    // Explicit DFS frames: (vertex, position in its successor list).
    let mut frames: Vec<(usize, usize)> = Vec::new();

    for start in 0..n {
        if index[start] != UNVISITED {
            continue;
        }
        frames.push((start, 0));
        index[start] = next_index;
        lowlink[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;

        while let Some(&mut (v, ref mut pos)) = frames.last_mut() {
            // Find next unprocessed off-diagonal successor of v.
            let succ = {
                let mut found = None;
                let neighbors = &successors[offsets[v]..offsets[v + 1]];
                while *pos < neighbors.len() {
                    let w = neighbors[*pos];
                    *pos += 1;
                    if index[w] == UNVISITED {
                        found = Some(w);
                        break;
                    } else if on_stack[w] {
                        lowlink[v] = lowlink[v].min(index[w]);
                    }
                }
                found
            };

            match succ {
                Some(w) => {
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                }
                None => {
                    frames.pop();
                    if let Some(&(parent, _)) = frames.last() {
                        lowlink[parent] = lowlink[parent].min(lowlink[v]);
                    }
                    if lowlink[v] == index[v] {
                        // v is the root of an SCC; it is on the stack, so
                        // the pop loop always terminates at it.
                        while let Some(w) = stack.pop() {
                            on_stack[w] = false;
                            component[w] = count;
                            if w == v {
                                break;
                            }
                        }
                        count += 1;
                    }
                }
            }
        }
    }

    (component, count)
}

/// Vertices from which some vertex in `targets` is reachable (inclusive).
///
pub fn can_reach(m: &CsrMatrix, targets: &[usize]) -> Vec<bool> {
    let t = m.transpose();
    let n = m.rows();
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    for &s in targets {
        if s < n && !seen[s] {
            seen[s] = true;
            queue.push_back(s);
        }
    }
    while let Some(v) = queue.pop_front() {
        for (c, w) in t.row(v) {
            if c != v && w != 0.0 && !seen[c] {
                seen[c] = true;
                queue.push_back(c);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsela::CooMatrix;

    fn graph(n: usize, edges: &[(usize, usize)]) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for &(u, v) in edges {
            coo.push(u, v, 1.0);
        }
        coo.into_csr()
    }

    #[test]
    fn single_cycle_is_one_scc() {
        let g = graph(3, &[(0, 1), (1, 2), (2, 0)]);
        let (_, count) = strongly_connected_components(&g);
        assert_eq!(count, 1);
    }

    #[test]
    fn chain_is_n_sccs() {
        let g = graph(4, &[(0, 1), (1, 2), (2, 3)]);
        let (comp, count) = strongly_connected_components(&g);
        assert_eq!(count, 4);
        // Reverse topological numbering: sink gets the smallest index.
        assert!(comp[0] > comp[1]);
        assert!(comp[1] > comp[2]);
        assert!(comp[2] > comp[3]);
    }

    #[test]
    fn two_cycles_bridged() {
        let g = graph(4, &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)]);
        let (comp, count) = strongly_connected_components(&g);
        assert_eq!(count, 2);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[2], comp[3]);
        assert_ne!(comp[0], comp[2]);
        assert!(comp[0] > comp[2]); // edge from {0,1} into {2,3}
    }

    #[test]
    fn self_loops_are_ignored() {
        let g = graph(2, &[(0, 0), (1, 1)]);
        let (_, count) = strongly_connected_components(&g);
        assert_eq!(count, 2);
    }

    #[test]
    fn empty_graph() {
        let g = CsrMatrix::zeros(0, 0);
        let (comp, count) = strongly_connected_components(&g);
        assert_eq!(count, 0);
        assert!(comp.is_empty());
    }

    #[test]
    fn can_reach_traverses_backwards() {
        let g = graph(4, &[(0, 1), (1, 2), (3, 3)]);
        let r = can_reach(&g, &[2]);
        assert_eq!(r, vec![true, true, true, false]);
    }

    #[test]
    fn deep_chain_does_not_overflow() {
        // 100k-vertex path — recursive Tarjan would blow the stack.
        let n = 100_000;
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g = graph(n, &edges);
        let (_, count) = strongly_connected_components(&g);
        assert_eq!(count, n);
    }
}
