/* diamond: depth 4, 2 devices */
#define SPI_IOC_MESSAGE_1 1075866368
#define SPI_IOC_RD_LSB_FIRST 2147576578
#define SPI_IOC_RD_MAX_SPEED_HZ 2147773188
#define SPI_IOC_RD_MODE32 2147773189
#define SPI_IOC_WR_BITS_PER_WORD 1073834755
#define SPI_IOC_WR_LSB_FIRST 1073834754
#define SPI_IOC_WR_MAX_SPEED_HZ 1074031364
#define SPI_IOC_WR_MODE32 1074031365
#define XFER_BYTES 4
int level4(int fd1, int fd2, int req) {
    int r = req;
    int got_0 = read(fd2, 0, XFER_BYTES);
    int got_1 = read(fd1, 0, XFER_BYTES);
    int m2 = r;
    ioctl(fd1, m2, 0);
    write(fd2, 0, XFER_BYTES);
    write(fd1, 0, XFER_BYTES);
    int m5 = r;
    ioctl(fd2, m5, 0);
    return 0;
}

int level3(int fd1, int fd2, int req) {
    int r = req;
    level4(fd1, fd2, r);
    if (r != 0) {
        level4(fd2, fd1, r);
    }
    int q = SPI_IOC_RD_MODE32;
    ioctl(fd1, q, 0);
    return 0;
}

int level2(int fd1, int fd2, int req) {
    int r = req;
    level3(fd1, fd2, r);
    if (r != 0) {
        level3(fd2, fd1, r);
    }
    int q = SPI_IOC_RD_LSB_FIRST;
    ioctl(fd1, q, 0);
    return 0;
}

int level1(int fd1, int fd2, int req) {
    int r = req;
    level2(fd1, fd2, r);
    if (r != 0) {
        level2(fd2, fd1, r);
    }
    int q = SPI_IOC_RD_MAX_SPEED_HZ;
    ioctl(fd1, q, 0);
    return 0;
}

int main(void) {
    int fd1 = open("/dev/spidev0.0", 2);
    int fd2 = open("/dev/spidev0.1", 2);
    int set_0_0 = SPI_IOC_WR_BITS_PER_WORD;
    ioctl(fd1, set_0_0, 8);
    ioctl(fd1, SPI_IOC_WR_MODE32, 0);
    ioctl(fd1, SPI_IOC_WR_LSB_FIRST, 0);
    ioctl(fd1, SPI_IOC_WR_MAX_SPEED_HZ, 500000);
    int set_1_0 = SPI_IOC_WR_MAX_SPEED_HZ;
    ioctl(fd2, set_1_0, 500000);
    ioctl(fd2, SPI_IOC_WR_LSB_FIRST, 0);
    int set_1_2 = SPI_IOC_WR_BITS_PER_WORD;
    ioctl(fd2, set_1_2, 8);
    int set_1_3 = SPI_IOC_WR_MODE32;
    ioctl(fd2, set_1_3, 0);
    int req = SPI_IOC_MESSAGE_1;
    level1(fd1, fd2, req);
    if (req != 0) {
        level1(fd2, fd1, req);
    }
    close(fd1);
    close(fd2);
    return 0;
}
