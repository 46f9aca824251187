/* wide: 24 branches, bus setup without WR_LSB_FIRST */
#define SPI_IOC_MESSAGE_1 1075866368
#define SPI_IOC_WR_BITS_PER_WORD 1073834755
#define SPI_IOC_WR_MAX_SPEED_HZ 1074031364
#define SPI_IOC_WR_MODE 1073834753
#define XFER_BYTES 4

int main(void) {
    int fd = open("/dev/spidev0.0", 2);
    int flags = 0;
    int set_0 = SPI_IOC_WR_MAX_SPEED_HZ;
    ioctl(fd, set_0, 500000);
    ioctl(fd, SPI_IOC_WR_BITS_PER_WORD, 8);
    int set_2 = SPI_IOC_WR_MODE;
    ioctl(fd, set_2, 3);
    if (flags < 1) {
        int got_0 = read(fd, 0, XFER_BYTES);
    }
    if (flags < 2) {
        write(fd, 0, XFER_BYTES);
    }
    if (flags < 3) {
        int got_2 = read(fd, 0, XFER_BYTES);
    }
    if (flags < 4) {
        int got_3 = read(fd, 0, XFER_BYTES);
    }
    if (flags > 5) {
        int req_4 = SPI_IOC_MESSAGE_1;
        ioctl(fd, req_4, 0);
    }
    if (flags > 6) {
        int req_5 = SPI_IOC_MESSAGE_1;
        ioctl(fd, req_5, 0);
    }
    if (flags != 7) {
        write(fd, 0, XFER_BYTES);
    }
    if (flags != 8) {
        int req_7 = SPI_IOC_MESSAGE_1;
        ioctl(fd, req_7, 0);
    }
    if (flags & 9) {
        int got_8 = read(fd, 0, XFER_BYTES);
    }
    if (flags > 10) {
        int got_9 = read(fd, 0, XFER_BYTES);
    }
    if (flags != 11) {
        write(fd, 0, XFER_BYTES);
    }
    if (flags != 12) {
        write(fd, 0, XFER_BYTES);
    }
    if (flags < 13) {
        write(fd, 0, XFER_BYTES);
    }
    if (flags < 14) {
        int req_13 = SPI_IOC_MESSAGE_1;
        ioctl(fd, req_13, 0);
    }
    if (flags < 15) {
        write(fd, 0, XFER_BYTES);
    }
    if (flags < 16) {
        int req_15 = SPI_IOC_MESSAGE_1;
        ioctl(fd, req_15, 0);
    }
    if (flags & 17) {
        write(fd, 0, XFER_BYTES);
    }
    if (flags != 18) {
        int got_17 = read(fd, 0, XFER_BYTES);
    }
    if (flags < 19) {
        int got_18 = read(fd, 0, XFER_BYTES);
    }
    if (flags < 20) {
        ioctl(fd, SPI_IOC_MESSAGE_1, 0);
    }
    if (flags != 21) {
        int req_20 = SPI_IOC_MESSAGE_1;
        ioctl(fd, req_20, 0);
    }
    if (flags < 22) {
        write(fd, 0, XFER_BYTES);
    }
    if (flags & 23) {
        ioctl(fd, SPI_IOC_MESSAGE_1, 0);
    }
    if (flags > 24) {
        int got_23 = read(fd, 0, XFER_BYTES);
    }
    close(fd);
    return 0;
}
