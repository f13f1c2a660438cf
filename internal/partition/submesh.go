package partition

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"bookleaf/internal/mesh"
)

// SubMesh is one rank's local mesh: owned elements and nodes first,
// followed by a one-element-deep ghost layer (all elements sharing at
// least one node with an owned element, plus their nodes). With this
// ghost rule every owned node sees all of its surrounding elements
// locally, so nodal mass/force sums need no communication — only ghost
// *values* must be refreshed, which is exactly the Typhon halo-exchange
// pattern the paper describes.
type SubMesh struct {
	M    *mesh.Mesh
	Rank int

	// Element exchange lists, symmetric across ranks: ElSend[s] on
	// rank r lists local owned elements that rank s holds as ghosts,
	// in the same (global-id) order as ElRecv[r] on rank s.
	ElSend map[int][]int
	ElRecv map[int][]int
	// Node exchange lists, same convention.
	NdSend map[int][]int
	NdRecv map[int][]int

	// Neighbours is the sorted list of ranks this rank exchanges with.
	Neighbours []int
}

// Split decomposes a global mesh according to part (per-element rank)
// into nparts local sub-meshes with ghost layers and matching exchange
// lists. Every part must be non-empty.
//
// The work and the scratch memory are linear in the global mesh, not in
// nparts times it: owned entities are bucketed per part in one counting
// pass, and the per-rank "seen" and global→local tables are two arrays
// shared by all ranks, reset by walking only the entries a rank touched.
// That indexing is serial; the ranks' local connectivity is then derived
// concurrently.
func Split(global *mesh.Mesh, part []int, nparts int) ([]*SubMesh, error) {
	if len(part) != global.NEl {
		return nil, fmt.Errorf("partition: part length %d != NEl %d", len(part), global.NEl)
	}
	elStart := make([]int, nparts+1)
	for e, p := range part {
		if p < 0 || p >= nparts {
			return nil, fmt.Errorf("partition: element %d assigned to invalid part %d", e, p)
		}
		elStart[p+1]++
	}
	for p := 0; p < nparts; p++ {
		if elStart[p+1] == 0 {
			return nil, fmt.Errorf("partition: part %d is empty", p)
		}
		elStart[p+1] += elStart[p]
	}

	// Node owner = min part over adjacent elements.
	ndOwner := make([]int, global.NNd)
	for n := range ndOwner {
		ndOwner[n] = nparts
	}
	for e := 0; e < global.NEl; e++ {
		for k := 0; k < 4; k++ {
			n := global.ElNd[e][k]
			if part[e] < ndOwner[n] {
				ndOwner[n] = part[e]
			}
		}
	}
	ndStart := make([]int, nparts+2) // bucket nparts: nodes no element touches
	for _, p := range ndOwner {
		ndStart[p+1]++
	}
	for p := 0; p <= nparts; p++ {
		ndStart[p+1] += ndStart[p]
	}

	// Owned entities bucketed per part, ascending global id within each
	// bucket. Owned entities lead a rank's local numbering in that same
	// order, so an entity's position in its bucket is its local index on
	// its owner — which is all the send-list wiring needs to know.
	elOf, elOwnIdx := bucket(part, elStart)
	ndOf, ndOwnIdx := bucket(ndOwner, ndStart)

	// Scratch shared by the ranks. elSeen[e] == r marks e as already
	// listed among rank r's ghosts; ndLocal[n] is n's local index on the
	// rank being built and -1 otherwise, put back to -1 by walking that
	// rank's nodes once its ElNd is written.
	elSeen := make([]int, global.NEl)
	ndLocal := make([]int32, global.NNd)
	for i := range elSeen {
		elSeen[i] = -1
	}
	for i := range ndLocal {
		ndLocal[i] = -1
	}
	var ghostEls, ghostNds []int

	subs := make([]*SubMesh, nparts)
	for r := 0; r < nparts; r++ {
		owned := elOf[elStart[r]:elStart[r+1]]
		ownNodes := ndOf[ndStart[r]:ndStart[r+1]]

		// Ghost elements: share a node with an owned element.
		ghostEls = ghostEls[:0]
		for _, e := range owned {
			for k := 0; k < 4; k++ {
				for _, c := range global.CornersAround(int(global.ElNd[e][k])) {
					if nb := int(c >> 2); part[nb] != r && elSeen[nb] != r {
						elSeen[nb] = r
						ghostEls = append(ghostEls, nb)
					}
				}
			}
		}
		sortByOwner(ghostEls, part)
		allEls := appendIDs(appendIDs(make([]int32, 0, len(owned)+len(ghostEls)), owned), ghostEls)

		// Ghost nodes: the local elements' nodes this rank does not own.
		// Walking the ghost elements finds them all: a node of an owned
		// element that a lower rank owns is also a node of one of that
		// rank's elements, which is then a ghost here.
		for i, n := range ownNodes {
			ndLocal[n] = int32(i)
		}
		ghostNds = ghostNds[:0]
		for _, e := range ghostEls {
			for k := 0; k < 4; k++ {
				if n := global.ElNd[e][k]; ndLocal[n] < 0 {
					ndLocal[n] = 0
					ghostNds = append(ghostNds, int(n))
				}
			}
		}
		sortByOwner(ghostNds, ndOwner)
		for i, n := range ghostNds {
			ndLocal[n] = int32(len(ownNodes) + i)
		}
		allNds := appendIDs(appendIDs(make([]int32, 0, len(ownNodes)+len(ghostNds)), ownNodes), ghostNds)

		lm := &mesh.Mesh{
			ElNd:     make([][4]int32, len(allEls)),
			X:        make([]float64, len(allNds)),
			Y:        make([]float64, len(allNds)),
			Region:   make([]int32, len(allEls)),
			BCs:      make([]mesh.BC, len(allNds)),
			GlobalEl: allEls,
			GlobalNd: allNds,
			NOwnEl:   len(owned),
			NOwnNd:   len(ownNodes),
		}
		for i, e := range allEls {
			for k := 0; k < 4; k++ {
				lm.ElNd[i][k] = ndLocal[global.ElNd[e][k]]
			}
			lm.Region[i] = global.Region[e]
		}
		for i, n := range allNds {
			lm.X[i] = global.X[n]
			lm.Y[i] = global.Y[n]
			lm.BCs[i] = global.BCs[n]
			ndLocal[n] = -1
		}
		sm := &SubMesh{
			M:      lm,
			Rank:   r,
			ElSend: make(map[int][]int),
			ElRecv: make(map[int][]int),
			NdSend: make(map[int][]int),
			NdRecv: make(map[int][]int),
		}
		// Receive lists: ghosts grouped by owner, already in
		// (owner, global id) order.
		for i := len(owned); i < len(allEls); i++ {
			src := part[allEls[i]]
			sm.ElRecv[src] = append(sm.ElRecv[src], i)
		}
		for i := len(ownNodes); i < len(allNds); i++ {
			src := ndOwner[allNds[i]]
			sm.NdRecv[src] = append(sm.NdRecv[src], i)
		}
		subs[r] = sm
	}

	// Each rank's local connectivity, on one goroutine per rank — the
	// width the run is about to use. A derivation reads and writes only
	// its own sub-mesh.
	var wg sync.WaitGroup
	for _, sm := range subs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sm.M.BuildConnectivity()
		}()
	}
	wg.Wait()

	// Wire send lists to mirror each receiver's order.
	for r := 0; r < nparts; r++ {
		for src, recvIdx := range subs[r].ElRecv {
			send := make([]int, len(recvIdx))
			for i, li := range recvIdx {
				send[i] = elOwnIdx[subs[r].M.GlobalEl[li]]
			}
			subs[src].ElSend[r] = send
		}
		for src, recvIdx := range subs[r].NdRecv {
			send := make([]int, len(recvIdx))
			for i, li := range recvIdx {
				send[i] = ndOwnIdx[subs[r].M.GlobalNd[li]]
			}
			subs[src].NdSend[r] = send
		}
	}
	// When the global mesh is itself a renumbered view (GlobalEl
	// non-nil — see internal/order), compose the maps so every local
	// GlobalEl/GlobalNd carries the canonical generation id: everything
	// that presents global data (checkpoint gather/scatter, dumps,
	// result assembly) lands in canonical order without knowing a
	// renumbering happened. The composition must run after the
	// send-list wiring above, which keys on raw indices into global.
	if global.GlobalEl != nil {
		for r := 0; r < nparts; r++ {
			lm := subs[r].M
			for i, ge := range lm.GlobalEl {
				lm.GlobalEl[i] = global.GlobalEl[ge]
			}
			for i, gn := range lm.GlobalNd {
				lm.GlobalNd[i] = global.GlobalNd[gn]
			}
		}
	}
	for r := 0; r < nparts; r++ {
		nb := make(map[int]bool)
		for s := range subs[r].ElSend {
			nb[s] = true
		}
		for s := range subs[r].ElRecv {
			nb[s] = true
		}
		for s := range subs[r].NdSend {
			nb[s] = true
		}
		for s := range subs[r].NdRecv {
			nb[s] = true
		}
		for s := range nb {
			subs[r].Neighbours = append(subs[r].Neighbours, s)
		}
		slices.Sort(subs[r].Neighbours)
	}
	return subs, nil
}

// bucket groups the ids 0..len(owner)-1 by owner, ascending within each
// group: of[start[p]:start[p+1]] lists the ids whose owner is p, and
// pos[id] is the id's position in its group. start is the prefix sum of
// the group sizes.
func bucket(owner, start []int) (of, pos []int) {
	of = make([]int, len(owner))
	pos = make([]int, len(owner))
	next := append([]int(nil), start...)
	for id, p := range owner {
		of[next[p]] = id
		pos[id] = next[p] - start[p]
		next[p]++
	}
	return of, pos
}

// appendIDs appends ids to dst as the int32 a mesh stores them in.
func appendIDs(dst []int32, ids []int) []int32 {
	for _, id := range ids {
		dst = append(dst, int32(id))
	}
	return dst
}

// sortByOwner sorts a rank's ghost ids by (owner, global id).
func sortByOwner(ids, owner []int) {
	slices.SortFunc(ids, func(a, b int) int {
		return cmp.Or(cmp.Compare(owner[a], owner[b]), cmp.Compare(a, b))
	})
}
