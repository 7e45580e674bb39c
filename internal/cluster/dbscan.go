// Package cluster implements the density-based clustering algorithm
// DBSCAN (Ester, Kriegel, Sander, Xu — KDD 1996), which the paper uses to
// extract the "major staying points on the driving paths" from raw GPS
// tracking data (§1.2).
//
// The implementation is generic over the item type; neighborhood queries
// are delegated to a caller-supplied function (a spatial.Grid query, for
// points). Stay points are now labelled on a grid in linear time
// (package trajectory); this breadth-first search is the oracle that
// labelling is tested against, label for label.
package cluster

// Label values returned by DBSCAN. Cluster IDs are non-negative; Noise
// marks points that belong to no cluster.
const Noise = -1

// NeighborFunc returns the indices of all items within the scan radius of
// item i, including i itself. DBSCAN calls it at most twice per item.
type NeighborFunc func(i int) []int

// DBSCAN clusters n items using the classic density-reachability
// definition: an item with at least minPts neighbors (itself included) is
// a core point; clusters are maximal sets of density-connected points.
// It returns a label per item: a cluster ID in [0, k) or Noise.
//
// The neighbors function defines the ε-neighborhood; DBSCAN itself is
// metric-agnostic.
func DBSCAN(n int, minPts int, neighbors NeighborFunc) []int {
	labels := make([]int, n)
	for i := range labels {
		labels[i] = unvisited
	}
	clusterID := 0
	for i := 0; i < n; i++ {
		if labels[i] != unvisited {
			continue
		}
		nbrs := neighbors(i)
		if len(nbrs) < minPts {
			labels[i] = Noise
			continue
		}
		// i is a core point: start a new cluster and expand it with a
		// breadth-first frontier over density-reachable points.
		labels[i] = clusterID
		frontier := append([]int(nil), nbrs...)
		for len(frontier) > 0 {
			j := frontier[0]
			frontier = frontier[1:]
			if labels[j] == Noise {
				// Border point previously dismissed as noise.
				labels[j] = clusterID
				continue
			}
			if labels[j] != unvisited {
				continue
			}
			labels[j] = clusterID
			jn := neighbors(j)
			if len(jn) >= minPts {
				frontier = append(frontier, jn...)
			}
		}
		clusterID++
	}
	return labels
}

const unvisited = -2

// Count returns the number of clusters in a label slice produced by
// DBSCAN (the number of distinct non-negative labels).
func Count(labels []int) int {
	max := -1
	for _, l := range labels {
		if l > max {
			max = l
		}
	}
	return max + 1
}

// Groups partitions item indices by cluster label. Noise points are
// returned separately.
func Groups(labels []int) (clusters [][]int, noise []int) {
	k := Count(labels)
	clusters = make([][]int, k)
	for i, l := range labels {
		if l == Noise {
			noise = append(noise, i)
			continue
		}
		clusters[l] = append(clusters[l], i)
	}
	return clusters, noise
}
