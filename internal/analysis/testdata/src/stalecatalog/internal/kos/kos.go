// Fixture stand-in: the kos names the real catalogs list (the IPCService.Send
// sink, the Kernel lock rank) are declared; TestStaleCatalogEntry plants
// entries that name what is not.
package kos

type Kernel struct{}

type IPCService struct {
	log [][]byte
}

func NewIPCService() *IPCService { return &IPCService{} }

func (s *IPCService) Send(channel string, payload []byte) {
	s.log = append(s.log, payload)
}
