package analysis

import "math"

// KMeans clusters binary/real vectors with Lloyd's algorithm and returns
// each vector's cluster index. It is deterministic: initial centroids are
// the two most distant vectors for k=2, or evenly spaced picks otherwise.
// The paper uses k-means (k=2) on 58-dimensional binary domain vectors to
// split websites into high- and low-sharing groups (§VI-D, Table III).
func KMeans(vectors [][]float64, k, maxIter int) ([]int, error) {
	n := len(vectors)
	if n == 0 || k < 1 || k > n {
		return nil, ErrNoData
	}
	dim := len(vectors[0])
	for _, v := range vectors {
		if len(v) != dim {
			return nil, ErrNoData
		}
	}
	if maxIter <= 0 {
		maxIter = 100
	}

	centroids := initialCentroids(vectors, k)
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}

	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i, v := range vectors {
			best, bestD := 0, math.Inf(1)
			for c := range centroids {
				d := sqDist(v, centroids[c])
				if d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed {
			break
		}
		// Recompute centroids.
		sums := make([][]float64, k)
		counts := make([]int, k)
		for c := range sums {
			sums[c] = make([]float64, dim)
		}
		for i, v := range vectors {
			c := assign[i]
			counts[c]++
			for d := range v {
				sums[c][d] += v[d]
			}
		}
		for c := range sums {
			if counts[c] == 0 {
				continue // keep previous centroid for empty cluster
			}
			for d := range sums[c] {
				sums[c][d] /= float64(counts[c])
			}
			centroids[c] = sums[c]
		}
	}

	return assign, nil
}

// initialCentroids picks deterministic seeds: for k=2 the pair of most
// distant vectors (O(n²), fine at corpus scale); otherwise evenly spaced
// vectors.
func initialCentroids(vectors [][]float64, k int) [][]float64 {
	n := len(vectors)
	out := make([][]float64, 0, k)
	if k == 2 && n >= 2 {
		bi, bj, bestD := 0, 1, -1.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if d := sqDist(vectors[i], vectors[j]); d > bestD {
					bi, bj, bestD = i, j, d
				}
			}
		}
		out = append(out, clone(vectors[bi]), clone(vectors[bj]))
		return out
	}
	for c := 0; c < k; c++ {
		out = append(out, clone(vectors[c*(n-1)/max(1, k-1)]))
	}
	return out
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func clone(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
